package smallbuffers_test

// Micro-benchmarks of the engine's hot paths through the public API. The
// per-protocol Decide benchmarks live next to the protocols
// (internal/core), the paper's tables are cmd/aqtbench's experiments, and
// bench/ holds the end-to-end benchmark.

import (
	"context"
	"fmt"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
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
