// Quickstart for the two-tier execution API.
//
// Tier 1: simulate PPTS (Algorithm 2 of the paper) on a 64-node line
// against a randomized (ρ,σ)-bounded adversary with four destinations,
// checking the measured maximum buffer occupancy against Proposition 3.2's
// bound of 1 + d + σ. The run is described by a Spec (functional options)
// and executed under a context, so it is cancellable.
//
// Tier 2: sweep the same question across a protocol × path-length × seed
// grid in parallel, and summarize the family of runs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sb "smallbuffers"
)

func main() {
	// Cancellation propagates into the engine between rounds; a timeout
	// here bounds the whole program.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// --- Tier 1: one run -------------------------------------------------

	// A directed path 0 → 1 → … → 63.
	nw, err := sb.NewPath(64)
	if err != nil {
		log.Fatal(err)
	}

	// Demand: average rate ρ = 1 packet per buffer per round, bursts of at
	// most σ = 2 above the average (Definition 2.1 of the paper).
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}

	// A randomized adversary that is (ρ,σ)-bounded by construction,
	// injecting toward four destinations in the right half of the line.
	dests := []sb.NodeID{40, 50, 60, 63}
	adv, err := sb.NewRandomAdversary(nw, bound, dests, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Run PPTS for 2000 rounds. The MaxLoadInvariant aborts the run if the
	// paper's bound is ever exceeded — it never is.
	limit := 1 + len(dests) + bound.Sigma
	res, err := sb.RunContext(ctx, sb.NewSpec(nw, sb.NewPPTS(), adv, 2000,
		sb.WithInvariants(sb.MaxLoadInvariant(nw, limit)),
	))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol:       %s\n", res.Protocol)
	fmt.Printf("injected:       %d packets over %d rounds\n", res.Injected, res.Rounds)
	fmt.Printf("max buffer use: %d packets (at buffer %d, round %d)\n",
		res.MaxLoad, res.MaxLoadNode, res.MaxLoadRound)
	fmt.Printf("paper bound:    1 + d + σ = %d (Proposition 3.2)\n", limit)
	if res.MaxLoad <= limit {
		fmt.Println("bound holds ✓")
	}

	// --- Tier 2: a parallel sweep ---------------------------------------

	// The paper's statements quantify over families of runs; the Sweep
	// layer runs the family. 2 protocols × 2 path lengths × 4 seeds = 16
	// cells, executed on a bounded worker pool; each cell's adversary gets
	// the cell's seed (the same grid reproduces exactly at any worker
	// count).
	sweep := &sb.Sweep{
		Protocols: []sb.SweepProtocol{
			sb.NewSweepProtocol("PPTS", func() sb.Protocol { return sb.NewPPTS() }),
			sb.NewSweepProtocol("Greedy-FIFO", func() sb.Protocol { return sb.NewGreedy(sb.FIFO) }),
		},
		Topologies:  []sb.SweepTopology{sb.SweepPath(64), sb.SweepPath(128)},
		Bounds:      []sb.Bound{bound},
		Adversaries: []sb.SweepAdversary{sb.SweepRandomAdversary(nil)},
		Seeds:       []int64{1, 2, 3, 4},
		Rounds:      []int{2000},
	}
	agg, err := sweep.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsweep:          %d/%d cells completed\n", agg.Completed, agg.Requested)
	fmt.Printf("max load:       mean %.1f, p95 %g, max %g\n",
		agg.MaxLoad.Mean, agg.MaxLoad.Percentile(95), agg.MaxLoad.Max)
	for _, cell := range agg.Cells {
		if cell.Err != nil {
			log.Fatal(cell.Err)
		}
		fmt.Printf("  %-12s %-10s seed=%d → max load %d\n",
			cell.Cell.Protocol, cell.Cell.Topology, cell.Cell.Seed, cell.Result.MaxLoad)
	}
}
