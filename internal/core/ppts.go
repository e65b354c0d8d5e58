package core

import (
	"fmt"
	"sort"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// PPTS is Algorithm 2, "Parallel Peak-to-Sink": the multi-destination path
// protocol of §3.2. Each buffer is partitioned into per-destination
// pseudo-buffers (virtual output queues). Scanning destinations from
// right-most to left-most, the algorithm activates, for each destination
// w_k, the interval of k-pseudo-buffers from the left-most bad one up to
// the frontier established by higher destinations; the intervals are
// disjoint (Lemma B.1), so at most one pseudo-buffer per node forwards.
// Proposition 3.2: against any (ρ,σ)-bounded adversary with d
// destinations, every buffer holds at most 1 + d + σ packets.
//
// Destinations need not be declared: per the remark after Algorithm 2,
// PPTS treats every node as a potential destination and scans the
// destinations actually present in the configuration each round.
//
// The DrainWhenIdle extension (off by default, not in the paper) forwards
// on rounds with no bad pseudo-buffer: it runs the same scan over
// *non-empty* pseudo-buffers, additionally ending each interval only where
// the receiving pseudo-buffer is empty (or the destination), which keeps
// the configuration badness-free, preserving the bound.
//
// On capacitated links the scan is unchanged; each activated pseudo-buffer
// forwards up to B(v) packets (B = 1 recovers Algorithm 2 exactly, and the
// 1 + d + σ bound scales down as bandwidth buys faster drains — see E12).
type PPTS struct {
	drainWhenIdle bool
	nw            *network.Network
}

var _ sim.Protocol = (*PPTS)(nil)

// PPTSOption configures PPTS.
type PPTSOption func(*PPTS)

// PPTSWithDrain enables the drain-when-idle liveness extension.
func PPTSWithDrain() PPTSOption {
	return func(p *PPTS) { p.drainWhenIdle = true }
}

// NewPPTS returns a PPTS instance.
func NewPPTS(opts ...PPTSOption) *PPTS {
	p := &PPTS{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Protocol.
func (p *PPTS) Name() string {
	if p.drainWhenIdle {
		return "PPTS+drain"
	}
	return "PPTS"
}

// Attach implements sim.Protocol.
func (p *PPTS) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	if !nw.IsPath() {
		return fmt.Errorf("core: PPTS requires a path topology (use TreePPTS for trees)")
	}
	p.nw = nw
	return nil
}

// pptsState is the per-round view: for each destination w present in the
// configuration, the per-node pseudo-buffer contents.
type pptsState struct {
	n int
	// byDest[w][i] = packets at node i destined for w, arrival order.
	byDest map[network.NodeID][][]packet.Packet
	dests  []network.NodeID // sorted ascending
	bw     []int            // bw[i] = link bandwidth of node i
}

func newPPTSState(v sim.View) *pptsState {
	n := v.Net().Len()
	st := &pptsState{n: n, byDest: make(map[network.NodeID][][]packet.Packet), bw: make([]int, n)}
	for i := 0; i < n; i++ {
		st.bw[i] = v.Bandwidth(network.NodeID(i))
		for _, pk := range v.Packets(network.NodeID(i)) {
			per := st.byDest[pk.Dst]
			if per == nil {
				per = make([][]packet.Packet, n)
				st.byDest[pk.Dst] = per
				st.dests = append(st.dests, pk.Dst)
			}
			per[i] = append(per[i], pk)
		}
	}
	sort.Slice(st.dests, func(a, b int) bool { return st.dests[a] < st.dests[b] })
	return st
}

// pseudo returns the k-pseudo-buffer of node i for destination w.
func (st *pptsState) pseudo(w network.NodeID, i int) []packet.Packet {
	per := st.byDest[w]
	if per == nil {
		return nil
	}
	return per[i]
}

// Decide implements sim.Protocol (Algorithm 2).
func (p *PPTS) Decide(v sim.View) ([]sim.Forward, error) {
	st := newPPTSState(v)
	out := p.scan(st, true)
	if out == nil && p.drainWhenIdle {
		out = p.scan(st, false)
	}
	return out, nil
}

// scan performs the right-to-left destination sweep. With bad=true it is
// Algorithm 2 verbatim: intervals begin at the left-most bad pseudo-buffer.
// With bad=false (drain mode) intervals begin at the left-most non-empty
// pseudo-buffer and are additionally truncated so that the packets leaving
// the interval's right end land in an empty pseudo-buffer (or their
// destination), preserving zero badness.
//
// On capacitated links each activated pseudo-buffer forwards under the
// cascaded-rate discipline: node i sends min(B(i), max(1, sent(i+1)))
// packets, full B(i) only into the destination itself. The node order of
// the sweep is right-to-left overall (higher destinations first, intervals
// right-to-left), so every receiver's rate is known before its sender's.
// At B = 1 every limit degenerates to one packet — Algorithm 2 exactly.
func (p *PPTS) scan(st *pptsState, bad bool) []sim.Forward {
	frontier := st.n // sentinel "w_d"
	sent := make([]int, st.n+1)
	var out []sim.Forward
	for kk := len(st.dests) - 1; kk >= 0; kk-- {
		w := st.dests[kk]
		// Left-most qualifying k-pseudo-buffer strictly left of the frontier.
		ik := -1
		limit := int(w)
		if frontier < limit {
			limit = frontier
		}
		for i := 0; i < limit; i++ {
			ps := st.pseudo(w, i)
			if (bad && len(ps) >= 2) || (!bad && len(ps) >= 1) {
				ik = i
				break
			}
		}
		if ik < 0 {
			continue
		}
		hi := frontier - 1
		if int(w)-1 < hi {
			hi = int(w) - 1
		}
		if !bad {
			// Truncate so the interval's emission lands safely: find the
			// largest hi' ∈ [ik, hi] with (hi'+1 == w) or L_k(hi'+1) empty.
			for hi >= ik && hi+1 != int(w) && len(st.pseudo(w, hi+1)) > 0 {
				hi--
			}
			if hi < ik {
				continue
			}
		}
		for i := hi; i >= ik; i-- {
			// The intervals are disjoint (Lemma B.1), so node i forwards
			// from this one pseudo-buffer only.
			limit := st.bw[i]
			if i+1 != int(w) {
				limit = min(limit, max(1, sent[i+1]))
				if !bad && i == hi {
					// Drain mode truncated the interval so its emission
					// lands in an empty pseudo-buffer; more than one packet
					// would create badness there.
					limit = 1
				}
			}
			n0 := len(out)
			out = appendLIFOTop(out, network.NodeID(i), st.pseudo(w, i), limit)
			sent[i] = len(out) - n0
		}
		frontier = ik
	}
	return out
}
