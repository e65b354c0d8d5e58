package local

import (
	"context"
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

func fullRate(sigma int) adversary.Bound {
	return adversary.Bound{Rho: rat.One, Sigma: sigma}
}

func TestDownhillAttachValidation(t *testing.T) {
	nw := network.MustPath(8)
	if err := NewDownhill().Attach(nil, adversary.Bound{}, nil); err == nil {
		t.Error("nil network accepted")
	}
	if err := NewDownhill().Attach(nw, adversary.Bound{}, []network.NodeID{3}); err == nil {
		t.Error("non-sink destination accepted")
	}
	if err := NewDownhill().Attach(nw, adversary.Bound{}, []network.NodeID{7}); err != nil {
		t.Errorf("sink destination rejected: %v", err)
	}
	if err := NewOddEven().Attach(nw, adversary.Bound{}, []network.NodeID{3}); err == nil {
		t.Error("odd-even: non-sink destination accepted")
	}
}

func TestNames(t *testing.T) {
	if got := NewDownhill().Name(); got != "Downhill" {
		t.Errorf("Name = %q", got)
	}
	if got := (&Downhill{Slack: 2}).Name(); got != "Downhill(slack=2)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewOddEven().Name(); got != "OddEvenDownhill" {
		t.Errorf("Name = %q", got)
	}
}

func TestDownhillDeliversStream(t *testing.T) {
	nw := network.MustPath(16)
	adv := adversary.NewStream(fullRate(0), 0, 15)
	res, err := sim.Run(context.Background(), sim.NewSpec(nw, NewDownhill(), adv, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Plain downhill stalls on equal-load plateaus (neighbors with equal
	// buffers exchange nothing), so at rate exactly 1 its throughput drops
	// to roughly half — the phenomenon the odd-even stagger repairs.
	if res.Delivered < 120 {
		t.Errorf("delivered %d of %d, want ≥ 120", res.Delivered, res.Injected)
	}
}

// TestOddEvenRateRegimes pins the stagger's throughput structure: each
// node forwards at most every other round, so odd-even sustains ρ ≤ 1/2
// with small buffers but diverges (backlog grows linearly at the source)
// at ρ = 1 — while plain downhill handles ρ = 1 with stalls instead.
func TestOddEvenRateRegimes(t *testing.T) {
	nw := network.MustPath(16)
	run := func(rho rat.Rat, rounds int) sim.Result {
		adv := adversary.NewStream(adversary.Bound{Rho: rho, Sigma: 1}, 0, 15)
		res, err := sim.Run(context.Background(), sim.NewSpec(nw, NewOddEven(), adv, rounds))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	half := run(rat.New(1, 2), 600)
	if half.MaxLoad > 8 {
		t.Errorf("ρ=1/2: max load %d, want small", half.MaxLoad)
	}
	if half.Residual > 30 {
		t.Errorf("ρ=1/2: residual %d of %d", half.Residual, half.Injected)
	}
	full := run(rat.One, 600)
	if full.MaxLoad < 200 {
		t.Errorf("ρ=1: expected divergent backlog at the source, got max load %d", full.MaxLoad)
	}
}

func TestOddEvenDeliversStream(t *testing.T) {
	nw := network.MustPath(16)
	adv := adversary.NewStream(adversary.Bound{Rho: rat.New(1, 2), Sigma: 1}, 0, 15)
	res, err := sim.Run(context.Background(), sim.NewSpec(nw, NewOddEven(), adv, 400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("odd-even delivered nothing")
	}
}

// TestDownhillStaircase pins the naive-local steady state of E10: under a
// sustained full-rate head stream, plain downhill converges to the full
// staircase L(i) = n−1−i, so its max buffer is n−1 — while centralized PTS
// stays at 2 on the same traffic. This is the Θ(n) vs Θ(1) locality gap
// around the Θ(ρ·log n + σ) optimal-local bound of [9, 17].
func TestDownhillStaircase(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		nw := network.MustPath(n)
		sink := network.NodeID(n - 1)
		rounds := 3 * n * n
		mk := func() adversary.Adversary {
			return adversary.NewStream(fullRate(0), 0, sink)
		}
		down, err := sim.Run(context.Background(), sim.NewSpec(nw, NewDownhill(), mk(), rounds))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := sim.Run(context.Background(), sim.NewSpec(nw, core.NewPTS(), mk(), rounds))
		if err != nil {
			t.Fatal(err)
		}
		if pts.MaxLoad > 2 {
			t.Errorf("n=%d: PTS exceeded 2+σ: %d", n, pts.MaxLoad)
		}
		if down.MaxLoad != n-1 {
			t.Errorf("n=%d: downhill staircase height = %d, want n−1 = %d", n, down.MaxLoad, n-1)
		}
	}
}

// TestDownhillSlackTradeoff: more slack, more stored packets.
func TestDownhillSlackTradeoff(t *testing.T) {
	nw := network.MustPath(32)
	load := make([]int, 0, 3)
	for _, slack := range []int{0, 1, 2} {
		adv, err := adversary.NewRandom(nw, fullRate(1), []network.NodeID{31}, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), sim.NewSpec(nw, &Downhill{Slack: slack}, adv, 400))
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, res.MaxLoad)
	}
	if !(load[0] <= load[1] && load[1] <= load[2]) {
		t.Errorf("slack should not reduce max load: %v", load)
	}
}

func TestDownhillOnTree(t *testing.T) {
	tree, err := network.SpiderTree(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(tree, adversary.Bound{Rho: rat.New(1, 2), Sigma: 1}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.NewSpec(tree, NewDownhill(), adv, 400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered on tree")
	}
}

func TestOddEvenParityStagger(t *testing.T) {
	// With the stagger, a node at even depth never forwards in odd rounds.
	nw := network.MustPath(6)
	adv := adversary.NewSchedule().AtN(0, 3, 0, 5).Build(fullRate(2))
	var badMoves []string
	obs := &parityObserver{nw: nw, bad: &badMoves}
	if _, err := sim.Run(context.Background(), sim.NewSpec(nw, NewOddEven(), adv, 40, sim.WithObservers(obs))); err != nil {
		t.Fatal(err)
	}
	if len(badMoves) > 0 {
		t.Errorf("parity violations: %v", badMoves)
	}
}

type parityObserver struct {
	metrics.NopObserver
	nw  *network.Network
	bad *[]string
}

func (p *parityObserver) OnForward(round int, moves []metrics.Move) {
	for _, m := range moves {
		if p.nw.Depth(m.From)%2 != round%2 {
			*p.bad = append(*p.bad, fmt.Sprintf("round %d from depth %d", round, p.nw.Depth(m.From)))
		}
	}
}
