package core

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// This file implements the badness accounting used by the paper's analyses
// (Definitions 3.3, 4.5, B.4) and packages the resulting invariants as
// engine hooks: the analyses bound the badness of every buffer by its
// excess, so tracking both during a run turns each proposition into an
// executable assertion.

// PathBadness returns B^t(i) per Definition 3.3: the number of bad packets
// stored in buffers i' ≤ i whose destination lies strictly beyond i. A
// packet is bad when it sits at position ≥ 2 of its destination
// pseudo-buffer.
func PathBadness(v sim.View, i network.NodeID) int {
	total := 0
	for ip := network.NodeID(0); ip <= i; ip++ {
		perDest := make(map[network.NodeID]int)
		for _, pk := range v.Packets(ip) {
			if pk.Dst > i {
				perDest[pk.Dst]++
			}
		}
		for _, c := range perDest {
			if c >= 2 {
				total += c - 1
			}
		}
	}
	return total
}

// HPTSBadness returns B^t(i) per Definition 4.5: for each level j and
// destination index k, the bad packets in (j,k)-pseudo-buffers of buffers
// i' ≤ i inside i's level-j interval, summed over all (j,k). As in
// Definition 3.3 ("with destinations w > i"), only packets whose current
// segment crosses buffer i count — their level-j intermediate destination
// must lie strictly beyond i — since the comparison target ξ(i) counts
// exactly the packets needing i's outgoing link.
func HPTSBadness(h *Hierarchy, v sim.View, i network.NodeID) int {
	total := 0
	for j := 0; j < h.Levels(); j++ {
		_, lo, _ := h.IntervalOf(j, int(i))
		// β_{j,k}(i') accumulated per k over i' ∈ [lo, i].
		perK := make(map[int]int)
		for ip := lo; ip <= int(i); ip++ {
			counts := make(map[int]int)
			for _, pk := range v.Packets(network.NodeID(ip)) {
				lvl, k := h.Class(ip, int(pk.Dst))
				if lvl == j && h.IntermediateDest(ip, int(pk.Dst)) > int(i) {
					counts[k]++
				}
			}
			for k, c := range counts {
				if c >= 2 {
					perK[k] += c - 1
				}
			}
		}
		for _, c := range perK {
			total += c
		}
	}
	return total
}

// TreeBadness returns the tree analogue of Definition 3.3 (via B.4): the
// number of bad packets stored in the subtree of v whose destinations lie
// strictly beyond v (so their paths cross v's outgoing link).
func TreeBadness(nw *network.Network, v sim.View, node network.NodeID) int {
	total := 0
	for _, u := range nw.Subtree(node) {
		perDest := make(map[network.NodeID]int)
		for _, pk := range v.Packets(u) {
			// The packet crosses node's outgoing link iff its destination is
			// reachable from node and is not node itself.
			if pk.Dst != node && nw.Reaches(node, pk.Dst) {
				perDest[pk.Dst]++
			}
		}
		for _, c := range perDest {
			if c >= 2 {
				total += c - 1
			}
		}
	}
	return total
}

// BoundCheck couples an excess tracker with a badness functional, turning
// the analyses' central inequality B^{t+}(i) ≤ ξ^t(i) into an executable
// per-round invariant. Register Observer() on the engine (it feeds the
// tracker) and Invariant() as a sim.Invariant.
type BoundCheck struct {
	nw     *network.Network
	excess *adversary.Excess
	// badness(v, node) computes the protocol-specific badness of node.
	badness func(v sim.View, node network.NodeID) int
	// checkAt(round) limits checks (e.g. HPTS checks at phase ends only).
	checkAt func(round int) bool
	// phase > 1 switches the tracker to the reduced pattern: accepted
	// batches are absorbed once per phase instead of raw injections once
	// per round.
	phase int
}

// NewPathBoundCheck checks the PTS/PPTS invariant B^{t+}(i) ≤ ξ^t(i) on a
// path (the inductive hearts of Propositions 3.1 and 3.2) after every
// round.
func NewPathBoundCheck(nw *network.Network, rho rat.Rat) *BoundCheck {
	return &BoundCheck{
		nw:      nw,
		excess:  adversary.NewExcess(nw, rho),
		badness: func(v sim.View, node network.NodeID) int { return PathBadness(v, node) },
		checkAt: func(int) bool { return true },
		phase:   1,
	}
}

// NewTreeBoundCheck checks the tree variant (Propositions B.3 and 3.5).
func NewTreeBoundCheck(nw *network.Network, rho rat.Rat) *BoundCheck {
	return &BoundCheck{
		nw:      nw,
		excess:  adversary.NewExcess(nw, rho),
		badness: func(v sim.View, node network.NodeID) int { return TreeBadness(nw, v, node) },
		checkAt: func(int) bool { return true },
		phase:   1,
	}
}

// NewHPTSBoundCheck checks the HPTS phase invariant (Theorem 4.1 proof): at
// the end of each phase, B(i) ≤ ξ(i), where ξ is the excess of the
// ℓ-reduced adversary (rate ℓ·ρ, Lemma 2.5) fed by the accepted batches.
func NewHPTSBoundCheck(nw *network.Network, h *Hierarchy, rho rat.Rat) *BoundCheck {
	ell := h.Levels()
	return &BoundCheck{
		nw:      nw,
		excess:  adversary.NewExcess(nw, rho.MulInt(int64(ell))),
		badness: func(v sim.View, node network.NodeID) int { return HPTSBadness(h, v, node) },
		checkAt: func(round int) bool { return round%ell == ell-1 },
		phase:   ell,
	}
}

// boundCheckObserver feeds the excess tracker from engine events. The
// engine fires OnInject every round, idle rounds included, so ξ decays by
// ρ per round as the analyses require.
type boundCheckObserver struct {
	metrics.NopObserver
	c       *BoundCheck
	pending []packet.Packet
}

func (o *boundCheckObserver) OnInject(round int, pkts []packet.Packet) {
	if o.c.phase == 1 {
		o.c.excess.Absorb(toInjections(pkts))
	}
}

func (o *boundCheckObserver) OnAccept(round int, pkts []packet.Packet) {
	if o.c.phase > 1 {
		o.pending = append(o.pending, pkts...)
	}
}

func (o *boundCheckObserver) OnRoundEnd(round int, _ metrics.View) {
	// One reduced round per acceptance round, injections or not.
	if o.c.phase > 1 && round%o.c.phase == 0 {
		o.c.excess.Absorb(toInjections(o.pending))
		o.pending = o.pending[:0]
	}
}

func toInjections(pkts []packet.Packet) []packet.Injection {
	out := make([]packet.Injection, len(pkts))
	for i, p := range pkts {
		out[i] = packet.Injection{Src: p.Src, Dst: p.Dst}
	}
	return out
}

// Observer returns the engine observer feeding the tracker. Register it
// with sim.WithObservers in the same Spec as Invariant().
func (c *BoundCheck) Observer() sim.Observer {
	return &boundCheckObserver{c: c}
}

// Invariant returns the per-round check: at enabled rounds, for every
// buffer i, badness(i) ≤ ξ(i) (evaluated after the forwarding step).
func (c *BoundCheck) Invariant() sim.Invariant {
	return func(v metrics.View) error {
		if !c.checkAt(v.Round()) {
			return nil
		}
		for i := 0; i < c.nw.Len(); i++ {
			node := network.NodeID(i)
			b := c.badness(v, node)
			if xi := c.excess.At(node); xi.Less(rat.FromInt(int64(b))) {
				return fmt.Errorf("core: badness %d > excess %v at buffer %d round %d", b, xi, node, v.Round())
			}
		}
		return nil
	}
}

// MaxLoadInvariant returns a sim.Invariant asserting every buffer holds at
// most `bound` packets, the executable form of the space theorems.
func MaxLoadInvariant(nw *network.Network, bound int) sim.Invariant {
	return func(v metrics.View) error {
		for i := 0; i < nw.Len(); i++ {
			if load := v.Load(network.NodeID(i)); load > bound {
				return fmt.Errorf("core: load %d > bound %d at buffer %d round %d", load, bound, i, v.Round())
			}
		}
		return nil
	}
}
