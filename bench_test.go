package smallbuffers_test

// One benchmark per reproduced artifact (the experiment index of
// EXPERIMENTS.md), plus micro-benchmarks of the hot paths. Each experiment
// benchmark executes one representative workload of its table per
// iteration; `go test -bench=.` therefore regenerates every measured
// quantity of the paper at a probe scale, and cmd/aqtbench produces the
// full tables.

import (
	"context"
	"fmt"
	"io"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/local"
	"smallbuffers/internal/network"
	"smallbuffers/internal/opt"
	"smallbuffers/internal/sim"
)

// runOnce executes one simulation and reports the max load to the bench.
func runOnce(b *testing.B, spec sb.Spec) sb.Result {
	b.Helper()
	res, err := sb.RunContext(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1PTS: Proposition 3.1 workload — PTS under a crafted burst.
func BenchmarkE1PTS(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := adversary.PTSBurst(nw, bound, 384)
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, core.NewPTS(), adv, 384))
		if res.MaxLoad > 2+bound.Sigma {
			b.Fatalf("bound violated: %d", res.MaxLoad)
		}
	}
}

// BenchmarkE2PPTS: Proposition 3.2 workload — PPTS with d = 8 destinations.
func BenchmarkE2PPTS(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.PPTSBurstAdversary(nw, bound, 8, 512)
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, sb.NewPPTS(), adv, 512))
		if res.MaxLoad > 1+8+bound.Sigma {
			b.Fatalf("bound violated: %d", res.MaxLoad)
		}
	}
}

// BenchmarkE3Tree: Proposition 3.5 workload — TreePPTS on a spider.
func BenchmarkE3Tree(b *testing.B) {
	tree, err := sb.SpiderTree(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	root := tree.Sinks()[0]
	dests := []sb.NodeID{1, 2, 3, root}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.TreeBurstAdversary(tree, bound, dests, 300)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, sb.NewSpec(tree, sb.NewTreePPTS(), adv, 300))
	}
}

// BenchmarkE4HPTS: Theorem 4.1 workload — HPTS(ℓ=2) on 64 = 8² nodes at
// ρ = 1/2.
func BenchmarkE4HPTS(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}
	dests := []sb.NodeID{15, 31, 47, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewRandomAdversary(nw, bound, dests, 11)
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, sb.NewHPTS(2), adv, 1024))
		if res.MaxLoad > 2*8+bound.Sigma+1 {
			b.Fatalf("bound violated: %d", res.MaxLoad)
		}
	}
}

// BenchmarkE5LowerBound: Theorem 5.1 workload — the Section 5 pattern vs
// PPTS (m=8, ℓ=2, ρ=3/4).
func BenchmarkE5LowerBound(b *testing.B) {
	probe, err := sb.NewLowerBoundAdversary(8, 2, sb.NewRat(3, 4))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := probe.Network()
	if err != nil {
		b.Fatal(err)
	}
	floor := int(probe.PredictedBound().Ceil())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewLowerBoundAdversary(8, 2, sb.NewRat(3, 4))
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, sb.NewPPTS(), adv, adv.Rounds()))
		if res.MaxLoad < floor {
			b.Fatalf("floor missed: %d < %d", res.MaxLoad, floor)
		}
	}
}

// BenchmarkE6Tradeoff: the headline tradeoff at one representative point —
// HPTS(ℓ=2) at ρ=1/2 with every node a destination, n = 256.
func BenchmarkE6Tradeoff(b *testing.B) {
	nw, err := sb.NewPath(256)
	if err != nil {
		b.Fatal(err)
	}
	dests := make([]sb.NodeID, 0, 255)
	for v := 1; v < 256; v++ {
		dests = append(dests, sb.NodeID(v))
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewRandomAdversary(nw, bound, dests, 6)
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, sb.NewHPTS(2), adv, 1024))
		if res.MaxLoad > 2*16+bound.Sigma+1 {
			b.Fatalf("bound violated: %d", res.MaxLoad)
		}
	}
}

// BenchmarkE7Greedy: the greedy-handicap workload — FIFO under the
// multi-destination stress pattern.
func BenchmarkE7Greedy(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := adversary.GreedyKiller(nw, bound, 16, 768)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, sb.NewSpec(nw, sb.NewGreedy(sb.FIFO), adv, 768))
	}
}

// BenchmarkE8Ablation: HPTS without ActivatePreBad (the ablated variant of
// Algorithm 5) on the E4 workload.
func BenchmarkE8Ablation(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}
	dests := []sb.NodeID{15, 31, 47, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewRandomAdversary(nw, bound, dests, 11)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, sb.NewSpec(nw, sb.NewHPTS(2, core.HPTSAblatePreBad()), adv, 1024))
	}
}

// BenchmarkE9Exact: the exhaustive offline optimum on the smallest
// Section 5 instance.
func BenchmarkE9Exact(b *testing.B) {
	probe, err := sb.NewLowerBoundAdversary(2, 2, sb.NewRat(1, 2))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := probe.Network()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewLowerBoundAdversary(2, 2, sb.NewRat(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Solve(opt.Config{
			Net: nw, Adversary: adv, Rounds: adv.Rounds(),
			MaxStates: 4_000_000, MaxBranch: 1 << 16,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Locality: the locality-gap workload — plain downhill
// converging to its staircase steady state on a 16-node line.
func BenchmarkE10Locality(b *testing.B) {
	nw, err := sb.NewPath(16)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewStream(bound, 0, 15)
		res := runOnce(b, sb.NewSpec(nw, local.NewDownhill(), adv, 768))
		if res.MaxLoad != 15 {
			b.Fatalf("staircase height %d, want 15", res.MaxLoad)
		}
	}
}

// BenchmarkE11Latency: the latency-vs-space workload with the latency
// recorder attached (PPTS+drain arm).
func BenchmarkE11Latency(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}
	dests := []sb.NodeID{56, 57, 58, 59, 60, 61, 62, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewRandomAdversary(nw, bound, dests, 12)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, sb.NewSpec(nw, sb.NewPPTS(sb.PPTSWithDrain()), adv, 1024))
	}
}

// BenchmarkAdaptiveHotSpot: engine + adaptive adversary round-trip cost.
func BenchmarkAdaptiveHotSpot(b *testing.B) {
	nw, err := sb.NewPath(64)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	dests := []sb.NodeID{40, 50, 60, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := adversary.NewHotSpot(nw, bound, dests, 7)
		if err != nil {
			b.Fatal(err)
		}
		res := runOnce(b, sb.NewSpec(nw, sb.NewPPTS(), adv, 512))
		if res.MaxLoad > 1+4+2 {
			b.Fatalf("bound violated: %d", res.MaxLoad)
		}
	}
}

// BenchmarkF1Figure: Figure 1 rendering.
func BenchmarkF1Figure(b *testing.B) {
	h, err := sb.NewHierarchy(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sb.RenderFigure1(io.Discard, h, 0, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkEngineGreedyThroughput measures raw engine rounds/sec with a
// greedy protocol on a 256-node line (reported as ns per 1024-round run).
func BenchmarkEngineGreedyThroughput(b *testing.B) {
	nw, err := sb.NewPath(256)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewStream(bound, 0, 255)
		runOnce(b, sb.NewSpec(nw, sb.NewGreedy(sb.FIFO), adv, 1024))
	}
}

// BenchmarkEngineReuse measures the allocation savings of Reset-driven
// engine reuse: one engine executes every iteration's run.
func BenchmarkEngineReuse(b *testing.B) {
	nw, err := sb.NewPath(256)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 0}
	mkSpec := func() sb.Spec {
		return sb.NewSpec(nw, sb.NewGreedy(sb.FIFO), adversary.NewStream(bound, 0, 255), 1024)
	}
	eng, err := sim.NewEngine(mkSpec())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reset(mkSpec()); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep32 executes the 32-cell acceptance grid on the worker
// pool; reported time is per whole sweep.
func BenchmarkSweep32(b *testing.B) {
	mk := func() *sb.Sweep {
		return &sb.Sweep{
			Protocols: []sb.SweepProtocol{
				sb.NewSweepProtocol("TreePTS", func() sb.Protocol { return sb.NewTreePTS() }),
				sb.NewSweepProtocol("TreePPTS", func() sb.Protocol { return sb.NewTreePPTS() }),
				sb.NewSweepProtocol("FIFO", func() sb.Protocol { return sb.NewGreedy(sb.FIFO) }),
				sb.NewSweepProtocol("LIS", func() sb.Protocol { return sb.NewGreedy(sb.LIS) }),
			},
			Topologies: []sb.SweepTopology{
				sb.SweepPath(32),
				{Name: "binary(4)", New: func() (*sb.Network, error) { return network.BinaryTree(4) }},
			},
			Bounds:      []sb.Bound{{Rho: sb.NewRat(1, 1), Sigma: 2}},
			Adversaries: []sb.SweepAdversary{sb.SweepRandomAdversary(nil)},
			Seeds:       []int64{1, 2, 3, 4},
			Rounds:      []int{400},
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agg, err := mk().Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Completed != 32 {
			b.Fatalf("completed %d cells: %v", agg.Completed, agg.FirstErr())
		}
	}
}

// BenchmarkAdversaryVerifier measures the exact (ρ,σ) verifier on a random
// pattern.
func BenchmarkAdversaryVerifier(b *testing.B) {
	nw, err := sb.NewPath(128)
	if err != nil {
		b.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := sb.NewRandomAdversary(nw, bound, nil, 5)
		if err != nil {
			b.Fatal(err)
		}
		if err := adversary.VerifyPrefix(nw, adv, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// ExampleRenderFigure1 pins the Figure 1 reproduction as a documented,
// verified example.
func ExampleRenderFigure1() {
	h, err := sb.NewHierarchy(2, 2)
	if err != nil {
		panic(err)
	}
	if err := sb.RenderFigure1(ioDiscardIndent{}, h, 0, 3); err != nil {
		panic(err)
	}
	fmt.Println("levels:", h.Levels(), "intervals at level 0:", h.IntervalCount(0))
	// Output: levels: 2 intervals at level 0: 2
}

// ioDiscardIndent is a tiny io.Writer for the example.
type ioDiscardIndent struct{}

func (ioDiscardIndent) Write(p []byte) (int, error) { return len(p), nil }
