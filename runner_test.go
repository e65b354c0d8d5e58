package smallbuffers_test

// Coverage of the two-tier execution API from outside the module's
// internals: an engine built from a facade Spec supports Step/Reset-driven
// reuse, and the Sweep layer is drivable entirely through the facade.

import (
	"context"
	"reflect"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/sim"
)

func fixedScenario(t *testing.T) (*sb.Network, sb.Adversary) {
	t.Helper()
	nw, err := sb.NewPath(48)
	if err != nil {
		t.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	adv, err := sb.NewRandomAdversary(nw, bound, []sb.NodeID{30, 40, 47}, 17)
	if err != nil {
		t.Fatal(err)
	}
	return nw, adv
}

// An engine built from a facade Spec supports Step/Reset-driven reuse.
func TestFacadeEngineStepReset(t *testing.T) {
	nw, adv := fixedScenario(t)
	eng, err := sim.NewEngine(sb.NewSpec(nw, sb.NewPPTS(), adv, 100))
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	stepped := eng.Result()
	_, adv2 := fixedScenario(t)
	if err := eng.Reset(sb.NewSpec(nw, sb.NewPPTS(), adv2, 100)); err != nil {
		t.Fatal(err)
	}
	rerun, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stepped, rerun) {
		t.Errorf("stepped and reused runs diverged:\n%+v\n%+v", stepped, rerun)
	}
}

// A facade-built sweep runs end to end and is reproducible.
func TestFacadeSweep(t *testing.T) {
	mk := func() *sb.Sweep {
		return &sb.Sweep{
			Protocols: []sb.SweepProtocol{
				sb.NewSweepProtocol("PPTS", func() sb.Protocol { return sb.NewPPTS() }),
				sb.NewSweepProtocol("Greedy-LIS", func() sb.Protocol { return sb.NewGreedy(sb.LIS) }),
			},
			Topologies:  []sb.SweepTopology{sb.SweepPath(32), sb.SweepPath(64)},
			Bounds:      []sb.Bound{{Rho: sb.NewRat(1, 1), Sigma: 1}},
			Adversaries: []sb.SweepAdversary{sb.SweepRandomAdversary(nil)},
			Seeds:       []int64{1, 2},
			Rounds:      []int{300},
		}
	}
	a, err := mk().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != 8 || a.Failed != 0 {
		t.Fatalf("completed %d/8 (first err %v)", a.Completed, a.FirstErr())
	}
	b, err := mk().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Result, b.Cells[i].Result) {
			t.Errorf("cell %v not reproducible", a.Cells[i].Cell)
		}
	}
	if a.MaxLoad.Count != 8 {
		t.Errorf("summaries not folded: %+v", a.MaxLoad)
	}
}
