package core

import (
	"fmt"
	"slices"

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
//
// Each round indexes the buffered packets once, recording for every
// destination present its leftmost non-empty and leftmost bad
// pseudo-buffer, which is all the sweep asks (the activated intervals are
// disjoint). The index walks the occupied buffers only, so it costs O(P)
// for P buffered packets, plus a sort of the destinations present; the
// sweep then costs the length of the intervals it activates. The scratch
// is sized at Attach, and Decide allocates nothing once its decision
// scratch has grown.
type PPTS struct {
	drainWhenIdle bool
	nw            *network.Network
	// scratch, sized at Attach and reused across rounds. Per destination w:
	first []int // leftmost node holding a packet for w, −1 if none
	bad   []int // leftmost node holding ≥ 2 packets for w, −1 if none
	seen  []int // last node found holding a packet for w
	dests []int // the destinations present, ascending
	out   []sim.Forward
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
	n := nw.Len()
	p.nw = nw
	scratch := make([]int, 4*n)
	p.first, p.bad, p.seen, p.dests = scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:3*n]
	for i := range scratch[:3*n] {
		scratch[i] = -1
	}
	return nil
}

// index records, in one left-to-right pass over round v's packets, the
// destinations present and each one's leftmost non-empty and leftmost bad
// pseudo-buffer. The previous round's entries are reset through its
// destination list.
func (p *PPTS) index(v sim.View) {
	for _, w := range p.dests {
		p.first[w], p.bad[w], p.seen[w] = -1, -1, -1
	}
	p.dests = p.dests[:0]
	for _, node := range v.Occupied() {
		i := int(node)
		for _, pk := range v.Packets(node) {
			// Nodes are scanned left to right, so the first node seen twice
			// for a destination is its leftmost bad one.
			switch w := int(pk.Dst); {
			case p.first[w] < 0:
				p.first[w], p.seen[w] = i, i
				p.dests = append(p.dests, w)
			case p.seen[w] != i:
				p.seen[w] = i
			case p.bad[w] < 0:
				p.bad[w] = i
			}
		}
	}
	slices.Sort(p.dests)
}

// Decide implements sim.Protocol (Algorithm 2).
func (p *PPTS) Decide(v sim.View) ([]sim.Forward, error) {
	p.index(v)
	out := p.scan(p.out[:0], v, true)
	if len(out) == 0 && p.drainWhenIdle {
		out = p.scan(out, v, false)
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
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
func (p *PPTS) scan(out []sim.Forward, v sim.View, bad bool) []sim.Forward {
	frontier := p.nw.Len() // sentinel "w_d"
	// sent is what the node right of the current one forwarded: an
	// interval's right end feeds either its destination or the previous
	// interval's left end, the node the last iteration served.
	sent := 0
	for k := len(p.dests) - 1; k >= 0; k-- {
		w := p.dests[k]
		// Left-most qualifying k-pseudo-buffer strictly left of the frontier:
		// the left-most one, unless that lies at or beyond it.
		ik := p.bad[w]
		if !bad {
			ik = p.first[w]
		}
		end := min(frontier, w)
		if ik < 0 || ik >= end {
			continue
		}
		hi := end - 1
		if !bad {
			// Truncate so the interval's emission lands safely: find the
			// largest hi' ∈ [ik, hi] with (hi'+1 == w) or L_k(hi'+1) empty.
			for hi >= ik && hi+1 != w && holds(v.Packets(network.NodeID(hi+1)), w) {
				hi--
			}
			if hi < ik {
				continue
			}
		}
		for i := hi; i >= ik; i-- {
			// The intervals are disjoint (Lemma B.1), so node i forwards
			// from this one pseudo-buffer only.
			limit := v.Bandwidth(network.NodeID(i))
			if i+1 != w {
				limit = min(limit, max(1, sent))
				if !bad && i == hi {
					// Drain mode truncated the interval so its emission
					// lands in an empty pseudo-buffer; more than one packet
					// would create badness there.
					limit = 1
				}
			}
			n0 := len(out)
			out = appendTopFor(out, network.NodeID(i), v.Packets(network.NodeID(i)), w, limit)
			sent = len(out) - n0
		}
		frontier = ik
	}
	return out
}

// holds reports whether pkts has a packet for destination w.
func holds(pkts []packet.Packet, w int) bool {
	return slices.ContainsFunc(pkts, func(pk packet.Packet) bool { return int(pk.Dst) == w })
}

// appendTopFor is appendLIFOTop over the pseudo-buffer of the packets in
// pkts destined for w: it forwards their b most recent.
func appendTopFor(out []sim.Forward, from network.NodeID, pkts []packet.Packet, w, b int) []sim.Forward {
	for q := len(pkts) - 1; q >= 0 && b > 0; q-- {
		if int(pkts[q].Dst) == w {
			out = append(out, sim.Forward{From: from, Pkt: pkts[q].ID})
			b--
		}
	}
	return out
}
