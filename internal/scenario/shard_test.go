package scenario

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
)

// shardGridSrc is a 12-cell grid (2 protocols × 2 rounds × 3 seeds).
func shardGridSrc() []byte {
	return []byte(`{
		"name": "shard-grid",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocols": [{"name": "ppts"}, {"name": "greedy-fifo"}],
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": [20, 40],
		"seeds": [1, 2, 3]
	}`)
}

func TestGridSize(t *testing.T) {
	sc, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	n, err := sc.GridSize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Errorf("GridSize = %d, want 12", n)
	}
	single, err := Parse([]byte(`{
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 20,
		"seed": 7
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := single.GridSize(); err != nil || n != 1 {
		t.Errorf("single GridSize = %d, %v, want 1", n, err)
	}
}

// TestShardMarshalFixedPoint checks that a sliced scenario survives the
// canonical Marshal∘Load round trip with the shard intact, and that its
// digest differs from the parent's and from every sibling shard's.
func TestShardMarshalFixedPoint(t *testing.T) {
	sc, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	parentDigest, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{parentDigest: true}
	for _, rng := range shardPlan(t, sc, 4) {
		sub, err := sc.Slice(rng.Lo, rng.Count())
		if err != nil {
			t.Fatal(err)
		}
		first, err := sub.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(first, []byte(`"shard"`)) {
			t.Fatalf("shard missing from canonical marshal:\n%s", first)
		}
		re, err := Parse(first)
		if err != nil {
			t.Fatalf("canonical sharded form does not load: %v\n%s", err, first)
		}
		second, err := re.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("shard %v: Marshal∘Load not a fixed point:\n%s\nvs\n%s", rng, first, second)
		}
		if re.Shard == nil || re.Shard.Offset != rng.Lo || re.Shard.Count != rng.Count() {
			t.Errorf("shard %v: round-tripped shard = %+v", rng, re.Shard)
		}
		d, err := sub.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if seen[d] {
			t.Errorf("shard %v: digest %s collides with parent or sibling", rng, d)
		}
		seen[d] = true
	}

	// Slicing did not mutate the parent: same digest, no shard.
	if d, err := sc.Digest(); err != nil || d != parentDigest {
		t.Errorf("parent digest changed after slicing: %s vs %s (%v)", d, parentDigest, err)
	}
	if sc.Shard != nil {
		t.Errorf("parent grew a shard: %+v", sc.Shard)
	}

	// An unsharded scenario's canonical form never mentions the key, so
	// pre-shard digests stay pinned.
	raw, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"shard"`)) {
		t.Errorf("unsharded marshal mentions shard:\n%s", raw)
	}
}

// shardPlan splits sc's grid into at most k shards the way the fleet
// plans them.
func shardPlan(t *testing.T, sc *Scenario, k int) []harness.IndexRange {
	t.Helper()
	weights, err := sc.CellWeights()
	if err != nil {
		t.Fatal(err)
	}
	return harness.PartitionRangesWeighted([]harness.IndexRange{{Lo: 0, Hi: len(weights)}}, weights, k)
}

// TestShardedRunsReassemble runs the grid whole and as every partition
// into k shards through the scenario layer, and requires the merged
// records to reproduce the unsharded digest exactly.
func TestShardedRunsReassemble(t *testing.T) {
	ctx := context.Background()
	parent, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := parent.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Requested != 12 || whole.Completed != 12 {
		t.Fatalf("grid = %d/%d, want 12/12 (first err: %v)", whole.Requested, whole.Completed, whole.FirstErr())
	}
	wantDigest := whole.Digest()

	for _, k := range []int{2, 3, 5} {
		var recs []harness.CellRecord
		for _, rng := range shardPlan(t, parent, k) {
			sub, err := parent.Slice(rng.Lo, rng.Count())
			if err != nil {
				t.Fatal(err)
			}
			if sub.IsSingle() {
				t.Fatalf("k=%d shard %v claims to be single", k, rng)
			}
			agg, err := sub.Run(ctx)
			if err != nil {
				t.Fatalf("k=%d shard %v: %v", k, rng, err)
			}
			if agg.Requested != rng.Count() {
				t.Fatalf("k=%d shard %v: requested %d, want %d", k, rng, agg.Requested, rng.Count())
			}
			recs = append(recs, agg.Records()...)
		}
		if got := harness.RecordsDigest(recs); got != wantDigest {
			t.Errorf("k=%d: reassembled digest %s, want %s", k, got, wantDigest)
		}
	}
}

// TestShardValidationErrors pins the error paths for malformed shards,
// among them shards whose end overflows int, and for a grid too large to
// index.
func TestShardValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"negative offset", func(sc *Scenario) { sc.Shard = &Shard{Offset: -1, Count: 2} }, "offset"},
		{"zero count", func(sc *Scenario) { sc.Shard = &Shard{Offset: 0, Count: 0} }, "count"},
		{"past the grid", func(sc *Scenario) { sc.Shard = &Shard{Offset: 10, Count: 3} }, "exceeds"},
		{"end past MaxInt", func(sc *Scenario) { sc.Shard = &Shard{Offset: math.MaxInt, Count: 1} }, "exceeds"},
		{"count past MaxInt", func(sc *Scenario) { sc.Shard = &Shard{Offset: 1, Count: math.MaxInt} }, "exceeds"},
		{"grid past maxGridCells", func(sc *Scenario) {
			// 2 protocols × 2^12 rounds × 2^12 seeds = 2^25 cells.
			sc.Rounds = make([]int, 1<<12)
			sc.Seeds = make([]int64, 1<<12)
			for i := range sc.Seeds {
				sc.Rounds[i], sc.Seeds[i] = i+1, int64(i)
			}
		}, "more than"},
	}
	for _, tc := range cases {
		sc, err := Parse(shardGridSrc())
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(sc)
		sc.validated = false
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantSub)
		}
	}

	// Slice rejects out-of-range and nested shards.
	sc, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Slice(6, 7); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, err := sc.Slice(math.MaxInt, 1); err == nil {
		t.Error("a slice ending past MaxInt accepted")
	}
	sub, err := sc.Slice(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Slice(0, 2); err == nil {
		t.Error("slicing a shard accepted")
	}

	// A sharded single-cell scenario is still no one-point scenario: it
	// indexes into a grid, even a 1×…×1 one.
	one, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	onecell, err := one.Slice(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if onecell.IsSingle() {
		t.Error("a sharded scenario claims to be single")
	}
	if _, err := onecell.Note(); err == nil {
		t.Error("Note on a sharded scenario must fail")
	}
}
