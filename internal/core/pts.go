package core

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// PTS is Algorithm 1, "Peak-to-Sink": the single-destination path protocol
// of §3.1. Each round it finds the left-most bad buffer (load ≥ 2) and
// activates every buffer from there to the destination; all activated
// non-empty buffers forward simultaneously. Proposition 3.1: against any
// (ρ,σ)-bounded adversary with ρ ≤ 1, every buffer holds at most 2 + σ
// packets.
//
// On capacitated links (B ≥ 1) the activation rule is unchanged — badness
// still means load ≥ 2 — and forwarding generalizes by the cascaded-rate
// discipline: rates are computed sink-side first, each
// activated buffer sends at most one packet more than its receiver passes
// onward, and only the buffer feeding the destination uses the full B. At
// B = 1 this is the paper's algorithm round for round; at larger B loaded
// suffixes drain from the destination end at up to B per round without
// ever piling packets onto a downstream buffer faster than the B = 1 wave
// would, which keeps the max load non-increasing in B (experiment E12
// plots the curve).
//
// The paper's PTS forwards nothing when no buffer is bad, which preserves
// space but not liveness. The DrainWhenIdle option additionally activates
// the suffix from the left-most *non-empty* buffer on rounds with no bad
// buffer; since the head of that suffix forwards without receiving and
// every other member receives at most one packet while forwarding, the
// configuration stays badness-free and Proposition 3.1 is unaffected (the
// accompanying tests check the bound in both modes).
type PTS struct {
	drainWhenIdle bool
	nw            *network.Network
	dest          network.NodeID
	out           []sim.Forward // decision scratch, reused across rounds
}

var _ sim.Protocol = (*PTS)(nil)

// PTSOption configures PTS.
type PTSOption func(*PTS)

// WithDrain enables forwarding on rounds with no bad buffer (a liveness
// extension; see type comment).
func WithDrain() PTSOption {
	return func(p *PTS) { p.drainWhenIdle = true }
}

// NewPTS returns a PTS instance.
func NewPTS(opts ...PTSOption) *PTS {
	p := &PTS{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Protocol.
func (p *PTS) Name() string {
	if p.drainWhenIdle {
		return "PTS+drain"
	}
	return "PTS"
}

// Attach implements sim.Protocol. PTS requires a path and a single common
// destination: the destination hint must name at most one node (the sink is
// assumed when the hint is empty).
func (p *PTS) Attach(nw *network.Network, _ adversary.Bound, dests []network.NodeID) error {
	if !nw.IsPath() {
		return fmt.Errorf("core: PTS requires a path topology (use TreePTS for trees)")
	}
	p.nw = nw
	switch len(dests) {
	case 0:
		p.dest = network.NodeID(nw.Len() - 1)
	case 1:
		p.dest = dests[0]
	default:
		return fmt.Errorf("core: PTS handles a single destination, adversary declares %d (use PPTS)", len(dests))
	}
	return nil
}

// Decide implements sim.Protocol.
func (p *PTS) Decide(v sim.View) ([]sim.Forward, error) {
	start := network.NodeID(-1)
	// Left-most bad buffer (Algorithm 1 line 2), or with drain the
	// left-most non-empty one: only occupied buffers qualify.
	occupied := v.Occupied()
	for _, i := range occupied {
		if i >= p.dest {
			break
		}
		if v.Load(i) >= 2 {
			start = i
			break
		}
	}
	if start < 0 && p.drainWhenIdle && len(occupied) > 0 && occupied[0] < p.dest {
		start = occupied[0]
	}
	if start < 0 {
		return nil, nil
	}
	// Activate [start, dest−1]; forwarding rates cascade from the
	// destination end (receivers are resolved before their senders).
	out := p.out[:0]
	prevSent := 0
	for i := p.dest - 1; i >= start; i-- {
		limit := v.Bandwidth(i)
		if i != p.dest-1 {
			limit = min(limit, max(1, prevSent))
		}
		n0 := len(out)
		out = appendLIFOTop(out, i, v.Packets(i), limit)
		prevSent = len(out) - n0
	}
	p.out = out
	return out, nil
}

// appendLIFOTop appends forwarding decisions for the min(len(pkts), b)
// most recently arrived packets of node from. It is the capacitated
// generalization of "forward the LIFO top": at b = 1 it emits exactly the
// paper's single decision.
func appendLIFOTop(out []sim.Forward, from network.NodeID, pkts []packet.Packet, b int) []sim.Forward {
	for k := 0; k < b && k < len(pkts); k++ {
		out = append(out, sim.Forward{From: from, Pkt: pkts[len(pkts)-1-k].ID})
	}
	return out
}
