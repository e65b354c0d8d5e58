// Package local implements *local* forwarding protocols: each node's
// decision depends only on its own buffer and its next hop's, in contrast
// to the centralized algorithms of the paper. The paper's "recent progress"
// section (§1) cites the single-destination results of Dobrev et al. [9]
// and Patt-Shamir–Rosenbaum [17]: protocols with constant locality need
// Θ(ρ·log n + σ) buffer space — exponentially more than the O(1 + σ) a
// centralized algorithm achieves — and the open-problems paragraph expects
// downhill-style rules to extend to the multi-destination case.
//
// This package provides the downhill family on in-forests (single
// destination per component: the root/sink), so the repository can measure
// the locality gap the paper describes (experiment E10): PTS stays at
// 2 + σ at every n, while downhill grows logarithmically with n.
package local

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/sim"
)

// Downhill forwards from every node whose buffer is strictly larger than
// its next hop's ("water flows downhill"). With all packets destined for
// the sink, the configuration converges to a staircase whose height — and
// hence max buffer — is Θ(log n) under full-rate traffic: each downhill
// step can sustain a gradient of one packet per node, and the sink drains
// one per round.
type Downhill struct {
	nw  *network.Network
	out []sim.Forward // decision scratch, reused across rounds
}

var _ sim.Protocol = (*Downhill)(nil)

// NewDownhill returns the classic downhill protocol.
func NewDownhill() *Downhill { return &Downhill{} }

// Name implements sim.Protocol.
func (p *Downhill) Name() string { return "Downhill" }

// Attach implements sim.Protocol. Downhill is single-destination: all
// packets must be destined for their component's sink, which holds
// whenever the adversary's destination hint names only sinks.
func (p *Downhill) Attach(nw *network.Network, _ adversary.Bound, dests []network.NodeID) error {
	if nw == nil {
		return fmt.Errorf("local: nil network")
	}
	sinks := make(map[network.NodeID]bool, len(nw.Sinks()))
	for _, s := range nw.Sinks() {
		sinks[s] = true
	}
	for _, d := range dests {
		if !sinks[d] {
			return fmt.Errorf("local: Downhill handles sink destinations only, adversary declares %d", d)
		}
	}
	p.nw = nw
	return nil
}

// Decide implements sim.Protocol: node v forwards from its LIFO top while
// |L(v)| > |L(next(v))|, up to B(v) packets — the capacitated
// downhill rule sends min(B(v), gradient) packets, so at B = 1 it is the
// classic single-packet rule. The comparison uses the pre-forwarding
// configuration at both endpoints, which is exactly the locality-1
// information model of [9, 17].
func (p *Downhill) Decide(v sim.View) ([]sim.Forward, error) {
	out := p.out[:0]
	for _, node := range v.Occupied() {
		next := p.nw.Next(node)
		if next == network.None {
			continue
		}
		pkts := v.Packets(node)
		// Note: the sink's load is always 0 (the engine absorbs packets on
		// arrival), so the gradient test is uniform across the line.
		k := len(pkts) - v.Load(next)
		if b := v.Bandwidth(node); k > b {
			k = b
		}
		for j := 0; j < k; j++ {
			out = append(out, sim.Forward{From: node, Pkt: pkts[len(pkts)-1-j].ID})
		}
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// OddEven is the parity-staggered downhill variant ("odd-even downhill" in
// the spirit of the OED algorithm of [9, 17]): nodes at even distance from
// the sink may forward only in even rounds, odd-distance nodes only in odd
// rounds, each when strictly downhill. The stagger prevents simultaneous
// sender/receiver moves, so a forwarded packet never lands in a buffer that
// is emptying under it — the property the local lower bound argument of
// [17] exploits.
type OddEven struct {
	nw  *network.Network
	out []sim.Forward // decision scratch, reused across rounds
}

var _ sim.Protocol = (*OddEven)(nil)

// NewOddEven returns the odd-even downhill protocol.
func NewOddEven() *OddEven { return &OddEven{} }

// Name implements sim.Protocol.
func (p *OddEven) Name() string { return "OddEvenDownhill" }

// Attach implements sim.Protocol.
func (p *OddEven) Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error {
	inner := Downhill{}
	if err := inner.Attach(nw, bound, dests); err != nil {
		return err
	}
	p.nw = nw
	return nil
}

// Decide implements sim.Protocol.
func (p *OddEven) Decide(v sim.View) ([]sim.Forward, error) {
	parity := v.Round() % 2
	out := p.out[:0]
	for _, node := range v.Occupied() {
		next := p.nw.Next(node)
		if next == network.None || p.nw.Depth(node)%2 != parity {
			continue
		}
		pkts := v.Packets(node)
		// Capacitated gradient rule, as in Downhill.
		k := len(pkts) - v.Load(next)
		if b := v.Bandwidth(node); k > b {
			k = b
		}
		for j := 0; j < k; j++ {
			out = append(out, sim.Forward{From: node, Pkt: pkts[len(pkts)-1-j].ID})
		}
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
