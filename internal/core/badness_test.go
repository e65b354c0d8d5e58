package core

import (
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// TestBoundCheckTrackerDecaysOnIdleRounds pins that the engine feeds
// BoundCheck's excess tracker on every round: after a run with idle
// rounds, ξ must equal an adversary.Excess fed the same injections round
// by round, empty rounds included. Absorb decays ξ by ρ per call, so a
// dispatch that skipped idle rounds would leave ξ too high, and the
// Prop 3.1 check would loosen while still passing.
func TestBoundCheckTrackerDecaysOnIdleRounds(t *testing.T) {
	nw := network.MustPath(8)
	rho := rat.New(1, 2)
	sched := map[int][]packet.Injection{
		0: {{Src: 0, Dst: 7}, {Src: 0, Dst: 7}},
		1: {{Src: 2, Dst: 7}},
		9: {{Src: 1, Dst: 7}},
	}
	const rounds = 16
	check := NewPathBoundCheck(nw, rho)
	runChecked(t, check, nw, NewPTS(), adversary.NewReplay(adversary.Bound{Rho: rho, Sigma: 2}, sched), rounds)

	every, busy := adversary.NewExcess(nw, rho), adversary.NewExcess(nw, rho)
	for r := 0; r < rounds; r++ {
		every.Absorb(sched[r])
		if len(sched[r]) > 0 {
			busy.Absorb(sched[r])
		}
	}
	differs := false
	for v := 0; v < nw.Len(); v++ {
		node := network.NodeID(v)
		if got, want := check.excess.At(node), every.At(node); !got.Equal(want) {
			t.Errorf("ξ(%d) = %v after the run, want %v (fed every round)", v, got, want)
		}
		differs = differs || !every.At(node).Equal(busy.At(node))
	}
	if !differs {
		t.Fatal("schedule has no idle round that changes ξ; the test would not notice skipped rounds")
	}
}
