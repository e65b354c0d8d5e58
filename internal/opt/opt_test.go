package opt

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

func fullRate(sigma int) adversary.Bound {
	return adversary.Bound{Rho: rat.One, Sigma: sigma}
}

func TestSolveValidation(t *testing.T) {
	nw := network.MustPath(3)
	if _, err := Solve(Config{Adversary: adversary.Empty{}, Rounds: 1}); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := Solve(Config{Net: nw, Rounds: 1}); err == nil {
		t.Error("nil adversary accepted")
	}
	if _, err := Solve(Config{Net: nw, Adversary: adversary.Empty{}, Rounds: -1}); err == nil {
		t.Error("negative horizon accepted")
	}
	tree, err := network.CaterpillarTree(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(Config{Net: tree, Adversary: adversary.Empty{}, Rounds: 1}); err == nil {
		t.Error("tree accepted")
	}
}

func TestSolveEmptyPattern(t *testing.T) {
	nw := network.MustPath(4)
	res, err := Solve(Config{Net: nw, Adversary: adversary.Empty{}, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptMaxLoad != 0 {
		t.Errorf("OptMaxLoad = %d, want 0", res.OptMaxLoad)
	}
}

func TestSolveSinglePacket(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewSchedule().At(0, 0, 3).Build(fullRate(0))
	res, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptMaxLoad != 1 {
		t.Errorf("OptMaxLoad = %d, want 1", res.OptMaxLoad)
	}
}

func TestSolveForcedCollision(t *testing.T) {
	// Two packets injected at the same node in one round: load 2 is forced
	// at injection, and the optimum is exactly 2.
	nw := network.MustPath(5)
	adv := adversary.NewSchedule().
		At(0, 0, 4).At(0, 0, 3).
		Build(fullRate(1))
	res, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptMaxLoad != 2 {
		t.Errorf("OptMaxLoad = %d, want 2", res.OptMaxLoad)
	}
}

func TestSolveSpreadAvoidsCollision(t *testing.T) {
	// Packets injected at different nodes with enough headroom: a good
	// schedule keeps every buffer at 1.
	nw := network.MustPath(6)
	adv := adversary.NewSchedule().
		At(0, 0, 5).
		At(1, 2, 5).
		At(3, 0, 4).
		Build(fullRate(1))
	res, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptMaxLoad != 1 {
		t.Errorf("OptMaxLoad = %d, want 1", res.OptMaxLoad)
	}
}

// TestOptimumNeverExceedsProtocols: the exhaustive optimum lower-bounds
// every online protocol on the same instance.
func TestOptimumNeverExceedsProtocols(t *testing.T) {
	nw := network.MustPath(6)
	mk := func() adversary.Adversary {
		return adversary.NewSchedule().
			At(0, 0, 5).At(0, 1, 4).
			At(1, 0, 5).
			At(2, 0, 3).At(2, 1, 5).
			At(4, 0, 5).
			Build(fullRate(2))
	}
	const rounds = 10
	res, err := Solve(Config{Net: nw, Adversary: mk(), Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []sim.Protocol{core.NewPPTS(), baseline.NewGreedy(baseline.LIS{})} {
		simRes, err := sim.Run(context.Background(), sim.NewSpec(nw, proto, mk(), rounds))
		if err != nil {
			t.Fatal(err)
		}
		if simRes.MaxLoad < res.OptMaxLoad {
			t.Errorf("%s beat the optimum: %d < %d", proto.Name(), simRes.MaxLoad, res.OptMaxLoad)
		}
	}
}

// TestOptimumRespectsLowerBoundPattern runs the exhaustive search on a tiny
// Section 5 instance (m=2, ℓ=2: 13 nodes, 8 rounds) — the exact offline
// optimum must respect the (trivial at this scale, but mechanical) floor.
func TestOptimumRespectsLowerBoundPattern(t *testing.T) {
	lb, err := lowerbound.New(2, 2, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := lb.Network()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(Config{
		Net: nw, Adversary: lb, Rounds: lb.Rounds(),
		MaxStates: 4_000_000, MaxBranch: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	floor := int(lb.PredictedBound().Ceil())
	if res.OptMaxLoad < floor {
		t.Errorf("optimum %d below predicted floor %d", res.OptMaxLoad, floor)
	}
	// E9 prints the state count; a search over wrong injections can keep
	// the optimum and still explore more states.
	if res.StatesExplored != 52 {
		t.Errorf("explored %d states, want 52", res.StatesExplored)
	}
}

// overwriting wraps an adversary so that every call overwrites the result
// it returned last time, the most an Inject result promises: a caller
// that keeps results without copying them sees them change.
type overwriting struct {
	adversary.Adversary
	out []packet.Injection
}

func (o *overwriting) Inject(round int) []packet.Injection {
	clear(o.out[:cap(o.out)])
	o.out = append(o.out[:0], o.Adversary.Inject(round)...)
	return o.out
}

// TestCallersHonorInjectOwnership: every caller that reads injections,
// Solve (which keeps them) included, answers the same over an adversary
// that overwrites its previous result as over a replay, whose results stay
// valid. The pattern is E9's Section 5 instance.
func TestCallersHonorInjectOwnership(t *testing.T) {
	lb, err := lowerbound.New(2, 2, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := lb.Network()
	if err != nil {
		t.Fatal(err)
	}
	rounds := lb.Rounds()
	schedule := make(map[int][]packet.Injection, rounds)
	for r := range rounds {
		schedule[r] = slices.Clone(lb.Inject(r))
	}
	sides := map[string]func() adversary.Adversary{
		"replay":      func() adversary.Adversary { return adversary.NewReplay(lb.Bound(), schedule) },
		"overwriting": func() adversary.Adversary { return &overwriting{Adversary: adversary.NewReplay(lb.Bound(), schedule)} },
	}
	type outcome struct {
		solve   Result
		merged  [][]packet.Injection
		reduced [][]packet.Injection
		verify  string
		run     sim.Result
	}
	got := map[string]outcome{}
	for name, mk := range sides {
		var o outcome
		if o.solve, err = Solve(Config{Net: nw, Adversary: mk(), Rounds: rounds}); err != nil {
			t.Fatal(err)
		}
		merged := adversary.NewSchedule().Merge(mk(), rounds).Build(mk().Bound())
		red := adversary.NewReduced(mk(), 2)
		for r := range rounds {
			o.merged = append(o.merged, merged.Inject(r))
			o.reduced = append(o.reduced, slices.Clone(red.Inject(r)))
		}
		o.verify = fmt.Sprint(adversary.VerifyPrefix(nw, mk(), rounds))
		if o.run, err = sim.Run(context.Background(), sim.NewSpec(nw, core.NewPPTS(), mk(), rounds)); err != nil {
			t.Fatal(err)
		}
		got[name] = o
	}
	if !reflect.DeepEqual(got["overwriting"], got["replay"]) {
		t.Errorf("over an overwriting adversary:\n%+v\nover a replay:\n%+v", got["overwriting"], got["replay"])
	}
}

func TestBranchBudgetEnforced(t *testing.T) {
	nw := network.MustPath(8)
	s := adversary.NewSchedule()
	// Many distinct destinations at many nodes → combinatorial decisions.
	for v := 0; v < 6; v++ {
		for d := v + 1; d < 8; d++ {
			s.At(0, network.NodeID(v), network.NodeID(d))
		}
	}
	adv := s.Build(fullRate(20))
	if _, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 4, MaxBranch: 8}); err == nil {
		t.Error("branch budget not enforced")
	}
}

func TestStateBudgetEnforced(t *testing.T) {
	nw := network.MustPath(6)
	s := adversary.NewSchedule()
	for r := 0; r < 6; r++ {
		s.At(r, 0, 5).At(r, 1, 4)
	}
	adv := s.Build(fullRate(4))
	if _, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 6, MaxStates: 3}); err == nil {
		t.Error("state budget not enforced")
	}
}

func TestSolveRejectsInvalidInjection(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewReplay(fullRate(1), map[int][]packet.Injection{0: {{Src: 3, Dst: 0}}})
	if _, err := Solve(Config{Net: nw, Adversary: adv, Rounds: 1}); err == nil {
		t.Error("backward injection accepted")
	}
}
