package core

import (
	"context"
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// dumpObserver prints configurations around a target round window with
// pseudo-buffer classes annotated. It is a debugging aid kept for future
// investigation of invariant failures; enable by setting from ≤ to.
type dumpObserver struct {
	metrics.NopObserver
	t    *testing.T
	h    *Hierarchy
	from int
	to   int
}

func (d *dumpObserver) OnRoundEnd(round int, v metrics.View) {
	if round < d.from || round > d.to {
		return
	}
	line := fmt.Sprintf("t=%3d |", round)
	for i := 0; i < v.Net().Len(); i++ {
		line += fmt.Sprintf(" %d:[", i)
		for _, pk := range v.Packets(network.NodeID(i)) {
			j, k := d.h.Class(i, int(pk.Dst))
			line += fmt.Sprintf("#%d→%d(%d,%d) ", pk.ID, pk.Dst, j, k)
		}
		line += "]"
	}
	d.t.Log(line)
}

// TestHPTSLevelScheduleRegression pins the scenario that exposed the level
// scheduling subtlety: on m=3, ℓ=2 with mixed destinations, a packet
// completing its level-1 segment in the last round of a phase lands on an
// occupied level-0 pseudo-buffer. With levels served in increasing order
// the resulting badness survives the phase and violates Lemma 4.8; with the
// paper's decreasing order (implemented) the invariant holds.
func TestHPTSLevelScheduleRegression(t *testing.T) {
	h, err := NewHierarchy(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := h.N()
	nw := network.MustPath(n)
	rho := rat.New(1, 2)
	bound := adversary.Bound{Rho: rho, Sigma: 2}
	var dests []network.NodeID
	for v := 1; v < n; v += (n / 4) {
		dests = append(dests, network.NodeID(v))
	}
	dests = append(dests, network.NodeID(n-1))
	adv, err := adversary.NewRandom(nw, bound, dests, 11)
	if err != nil {
		t.Fatal(err)
	}
	check := NewHPTSBoundCheck(nw, h, rho)
	_, err = sim.Run(context.Background(), sim.NewSpec(nw, NewHPTS(2), adv, 2000,
		sim.WithObservers(check.Observer()),
		sim.WithInvariants(check.Invariant(), MaxLoadInvariant(nw, HPTSSpaceBound(h, 2)))))
	if err != nil {
		t.Fatalf("phase invariant violated: %v", err)
	}
}
