package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// unitPartition splits [0, total) into at most shards pieces of
// near-equal cell count: zero weights count as 1.
func unitPartition(total, shards int) []IndexRange {
	return PartitionRangesWeighted([]IndexRange{{Lo: 0, Hi: total}}, make([]int, total), shards)
}

// TestPartitionCellsProperties sweeps small (total, shards)
// combinations over unit weights and checks the structural guarantees:
// exact coverage in ascending index order, no overlap, no empty piece,
// balance within one cell, and min(total, shards) pieces.
func TestPartitionCellsProperties(t *testing.T) {
	for total := 1; total <= 40; total++ {
		for shards := 1; shards <= 12; shards++ {
			ranges := unitPartition(total, shards)
			next := 0
			minSz, maxSz := total+1, 0
			for _, r := range ranges {
				if r.Lo != next {
					t.Fatalf("total=%d shards=%d: range %v does not start at %d", total, shards, r, next)
				}
				if r.Count() < 1 {
					t.Fatalf("total=%d shards=%d: empty range %v", total, shards, r)
				}
				if r.Count() < minSz {
					minSz = r.Count()
				}
				if r.Count() > maxSz {
					maxSz = r.Count()
				}
				next = r.Hi
			}
			if next != total {
				t.Fatalf("total=%d shards=%d: ranges cover [0,%d), want [0,%d)", total, shards, next, total)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("total=%d shards=%d: imbalance: sizes range %d..%d", total, shards, minSz, maxSz)
			}
			if want := min(total, shards); len(ranges) != want {
				t.Fatalf("total=%d shards=%d: %d ranges, want %d", total, shards, len(ranges), want)
			}
		}
	}
}

// shardTestSweep is a 12-cell grid (3 seeds × 2 rounds × 2 protocols)
// exercising several axes.
func shardTestSweep() *Sweep {
	return &Sweep{
		Protocols: []ProtocolSpec{
			Protocol("PTS", func() sim.Protocol { return core.NewPTS() }),
			Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) }),
		},
		Topologies:  []TopologySpec{Path(8)},
		Bounds:      []adversary.Bound{{Rho: rat.One, Sigma: 2}},
		Adversaries: []AdversarySpec{RandomAdversary(nil)},
		Seeds:       []int64{1, 2, 3},
		Rounds:      []int{40, 80},
	}
}

// TestShardedSweepReassembles runs the same grid unsharded and as every
// partition into k shards, and requires the concatenated shard records to
// reproduce the unsharded record set and digest exactly.
func TestShardedSweepReassembles(t *testing.T) {
	ctx := context.Background()
	whole, err := shardTestSweep().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := whole.Digest()
	total := whole.Requested
	if total != 12 {
		t.Fatalf("grid has %d cells, want 12", total)
	}

	for _, k := range []int{1, 2, 3, 5, 12} {
		var recs []CellRecord
		for _, rng := range unitPartition(total, k) {
			sw := shardTestSweep()
			sw.ShardOffset, sw.ShardCount = rng.Lo, rng.Count()
			agg, err := sw.Run(ctx)
			if err != nil {
				t.Fatalf("k=%d shard %v: %v", k, rng, err)
			}
			if agg.Requested != rng.Count() {
				t.Fatalf("k=%d shard %v: requested %d, want %d", k, rng, agg.Requested, rng.Count())
			}
			for _, cr := range agg.Cells {
				if cr.Cell.Index < rng.Lo || cr.Cell.Index >= rng.Hi {
					t.Fatalf("k=%d shard %v: cell index %d outside the shard", k, rng, cr.Cell.Index)
				}
			}
			recs = append(recs, agg.Records()...)
		}
		if got := RecordsDigest(recs); got != wantDigest {
			t.Errorf("k=%d: reassembled digest %s, want %s", k, got, wantDigest)
		}
	}
}

// TestShardValidation pins the shard-range error paths.
func TestShardValidation(t *testing.T) {
	sw := shardTestSweep()
	sw.ShardOffset, sw.ShardCount = -1, 2
	if _, err := sw.Run(context.Background()); err == nil {
		t.Error("negative ShardOffset accepted")
	}
	sw = shardTestSweep()
	sw.ShardOffset, sw.ShardCount = 3, 0
	if _, err := sw.Run(context.Background()); err == nil {
		t.Error("ShardOffset without ShardCount accepted")
	}
	sw = shardTestSweep()
	sw.ShardOffset, sw.ShardCount = 8, 5 // grid has 12 cells
	if _, err := sw.Run(context.Background()); err == nil {
		t.Error("out-of-range shard accepted")
	}
	// The shard's end overflows int, so only a check that avoids the sum
	// rejects it before the grid is sliced.
	sw = shardTestSweep()
	sw.ShardOffset, sw.ShardCount = math.MaxInt, 1
	if _, err := sw.CellsToRun(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("shard past MaxInt: %v, want an error naming the grid", err)
	}
	// CellsToRun agrees with Cells on the unsharded grid.
	sw = shardTestSweep()
	all, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	run, err := sw.CellsToRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(run) {
		t.Errorf("CellsToRun returned %d cells, Cells %d", len(run), len(all))
	}
}
