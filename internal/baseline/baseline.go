// Package baseline implements the classical greedy scheduling policies of
// adversarial queuing theory as comparison baselines: FIFO, LIFO, LIS
// ("longest in system"), SIS, NTG ("nearest to go"), and FTG. A greedy
// protocol forwards a packet from every non-empty buffer every round; the
// policy only chooses which packet. The paper's introduction (citing [2]
// and [17]) notes that greediness is a real handicap for buffer space: on a
// line with d destinations and rate ρ > 1/2, greedy policies are forced
// into Ω(d)-size buffers, which experiment E7 reproduces against PPTS and
// HPTS.
package baseline

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// Policy ranks packets within one buffer; the greedy protocol forwards the
// packet that Less ranks first. Ties beyond the comparator are broken by
// packet ID (injection order) for determinism.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Less reports whether a has priority over b at node v.
	Less(nw *network.Network, v network.NodeID, a, b packet.Packet) bool
}

// Greedy is the work-conserving protocol driven by a Policy: every
// non-empty non-sink buffer forwards its policy-preferred packets each
// round — up to B(v) of them on capacitated links (exactly one in the
// paper's unit-capacity model).
type Greedy struct {
	policy Policy
	nw     *network.Network
	// scratch reused across rounds: the decisions and one buffer's packets
	out     []sim.Forward
	scratch []packet.Packet
}

var _ sim.Protocol = (*Greedy)(nil)

// NewGreedy returns a greedy protocol with the given intra-buffer policy.
func NewGreedy(policy Policy) *Greedy { return &Greedy{policy: policy} }

// Name implements sim.Protocol.
func (g *Greedy) Name() string { return "Greedy-" + g.policy.Name() }

// Attach implements sim.Protocol. Greedy runs on any in-forest.
func (g *Greedy) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	if nw == nil {
		return fmt.Errorf("baseline: nil network")
	}
	g.nw = nw
	return nil
}

// Decide implements sim.Protocol: each non-empty non-sink buffer, in
// ascending node order, forwards its min(B(v), load) policy-preferred
// packets, selected greedily so that at B = 1 the choice coincides with
// the classical single-packet rule.
func (g *Greedy) Decide(v sim.View) ([]sim.Forward, error) {
	out, scratch := g.out[:0], g.scratch
	for _, node := range v.Occupied() {
		if g.nw.Next(node) == network.None {
			continue
		}
		pkts := v.Packets(node)
		b := v.Bandwidth(node)
		if b > len(pkts) {
			b = len(pkts)
		}
		scratch = append(scratch[:0], pkts...)
		// Partial selection: repeatedly extract the policy minimum (ID
		// tiebreak). b is tiny relative to buffer sizes, so the O(b·load)
		// scan beats sorting the whole buffer.
		for k := 0; k < b; k++ {
			bi := k
			for j := k + 1; j < len(scratch); j++ {
				if g.policy.Less(g.nw, node, scratch[j], scratch[bi]) ||
					(!g.policy.Less(g.nw, node, scratch[bi], scratch[j]) && scratch[j].ID < scratch[bi].ID) {
					bi = j
				}
			}
			scratch[k], scratch[bi] = scratch[bi], scratch[k]
			out = append(out, sim.Forward{From: node, Pkt: scratch[k].ID})
		}
	}
	g.out, g.scratch = out, scratch
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// FIFO forwards the packet that arrived at the buffer earliest.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Less implements Policy.
func (FIFO) Less(_ *network.Network, _ network.NodeID, a, b packet.Packet) bool {
	return a.Arrived < b.Arrived
}

// LIFO forwards the packet that arrived at the buffer latest.
type LIFO struct{}

// Name implements Policy.
func (LIFO) Name() string { return "LIFO" }

// Less implements Policy.
func (LIFO) Less(_ *network.Network, _ network.NodeID, a, b packet.Packet) bool {
	return a.Arrived > b.Arrived
}

// LIS ("longest in system") forwards the packet injected earliest.
type LIS struct{}

// Name implements Policy.
func (LIS) Name() string { return "LIS" }

// Less implements Policy.
func (LIS) Less(_ *network.Network, _ network.NodeID, a, b packet.Packet) bool {
	return a.Inject < b.Inject
}

// SIS ("shortest in system") forwards the packet injected latest.
type SIS struct{}

// Name implements Policy.
func (SIS) Name() string { return "SIS" }

// Less implements Policy.
func (SIS) Less(_ *network.Network, _ network.NodeID, a, b packet.Packet) bool {
	return a.Inject > b.Inject
}

// NTG ("nearest to go") forwards the packet with the fewest remaining hops.
type NTG struct{}

// Name implements Policy.
func (NTG) Name() string { return "NTG" }

// Less implements Policy.
func (NTG) Less(nw *network.Network, v network.NodeID, a, b packet.Packet) bool {
	da, _ := nw.Dist(v, a.Dst)
	db, _ := nw.Dist(v, b.Dst)
	return da < db
}

// FTG ("furthest to go") forwards the packet with the most remaining hops.
type FTG struct{}

// Name implements Policy.
func (FTG) Name() string { return "FTG" }

// Less implements Policy.
func (FTG) Less(nw *network.Network, v network.NodeID, a, b packet.Packet) bool {
	da, _ := nw.Dist(v, a.Dst)
	db, _ := nw.Dist(v, b.Dst)
	return da > db
}

// All returns one greedy protocol per classical policy, in a stable order.
func All() []*Greedy {
	return []*Greedy{
		NewGreedy(FIFO{}),
		NewGreedy(LIFO{}),
		NewGreedy(LIS{}),
		NewGreedy(SIS{}),
		NewGreedy(NTG{}),
		NewGreedy(FTG{}),
	}
}
