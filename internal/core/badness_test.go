package core

import (
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
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
	adv := adversary.NewSchedule().AtN(0, 2, 0, 7).At(1, 2, 7).At(9, 1, 7).Build(adversary.Bound{Rho: rho, Sigma: 2})
	const rounds = 16
	check := NewPathBoundCheck(nw, rho)
	runChecked(t, check, nw, NewPTS(), adv, rounds)

	every, busy := adversary.NewExcess(nw, rho), adversary.NewExcess(nw, rho)
	for r := 0; r < rounds; r++ {
		every.Absorb(adv.Inject(r))
		if len(adv.Inject(r)) > 0 {
			busy.Absorb(adv.Inject(r))
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
