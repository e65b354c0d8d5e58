package metrics

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// These property tests pin down the algebra the fan-out merge relies on:
// the fleet coordinator, the service summary event, and the harness all
// aggregate per-shard summary maps with MergeAll, and the distributed
// results digest is only sound if the grouping of that fold cannot
// change the wire bytes.
//
// The exact contract (mirrors the Merge doc comment):
//
//   - with no anchors, or with distinct anchor values, merging is a
//     commutative monoid: ANY grouping in ANY order yields byte-identical
//     wire records;
//   - anchor ties keep the first argument, so with ties the fold is
//     associative but only order-canonical: ANY grouping of a FIXED
//     (cell-index) order yields byte-identical wire records, which is
//     the discipline every caller follows.

// randSummaries builds one shard's summary map: a histogram summary, a
// plain scalar summary, and an anchored scalar summary. anchor fixes the
// anchored scalar's anchor value (so callers can force distinct values
// or ties across shards).
func randSummaries(rng *rand.Rand, anchor int) map[string]Summary {
	h := NewHist()
	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		h.Add(rng.Intn(300))
	}
	hr := h.Record()
	return map[string]Summary{
		"latency": {
			Name: "latency",
			Kind: KindHist,
			Hist: hr,
			Scalars: map[string]int{
				"count": hr.Count, "sum": hr.Sum, "min": hr.Min, "max": hr.Max,
				"p50": hr.Quantile(50), "p90": hr.Quantile(90), "p99": hr.Quantile(99),
			},
		},
		"occupancy": {
			Name: "occupancy",
			Kind: KindScalar,
			Scalars: map[string]int{
				"max_load": rng.Intn(100),
				"rounds":   rng.Intn(5000),
			},
		},
		"peak": {
			Name: "peak",
			Kind: KindScalar,
			Scalars: map[string]int{
				"max_load":       anchor,
				"max_load_node":  rng.Intn(64),
				"max_load_round": rng.Intn(5000),
			},
			Anchor:   "max_load",
			Anchored: []string{"max_load_node", "max_load_round"},
		},
	}
}

// wire renders the merged map in its canonical wire form — the byte
// string the digest sees.
func wire(t *testing.T, runs []map[string]Summary) string {
	t.Helper()
	merged, err := MergeAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Records(merged))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// foldGrouped folds runs pairwise over a random binary grouping (still in
// slice order), exercising associativity: ((a·b)·(c·d)) vs (a·(b·(c·d)))
// and every shape in between.
func foldGrouped(t *testing.T, rng *rand.Rand, runs []map[string]Summary) string {
	t.Helper()
	var fold func(runs []map[string]Summary) map[string]Summary
	fold = func(runs []map[string]Summary) map[string]Summary {
		if len(runs) == 1 {
			// MergeAll over a singleton normalizes it the same way the
			// n-ary fold would.
			m, err := MergeAll(runs[:1])
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		cut := 1 + rng.Intn(len(runs)-1)
		left, right := fold(runs[:cut]), fold(runs[cut:])
		m, err := MergeAll([]map[string]Summary{left, right})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b, err := json.Marshal(Records(fold(runs)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeAnyGroupingAnyOrder is the strong property: with distinct
// anchor values, every permutation and every grouping of the shard
// summaries produces byte-identical wire records.
func TestMergeAnyGroupingAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nShards := 2 + rng.Intn(7)
		// Distinct anchor values: a random permutation of 10, 20, 30, …
		anchors := rng.Perm(nShards)
		runs := make([]map[string]Summary, nShards)
		for i := range runs {
			runs[i] = randSummaries(rng, 10*(anchors[i]+1))
		}
		want := wire(t, runs)

		for rep := 0; rep < 8; rep++ {
			perm := make([]map[string]Summary, nShards)
			for i, j := range rng.Perm(nShards) {
				perm[i] = runs[j]
			}
			if got := wire(t, perm); got != want {
				t.Fatalf("trial %d: linear fold over a permutation diverged:\n got %s\nwant %s", trial, got, want)
			}
			if got := foldGrouped(t, rng, perm); got != want {
				t.Fatalf("trial %d: grouped fold over a permutation diverged:\n got %s\nwant %s", trial, got, want)
			}
		}
	}
}

// TestMergeAnyGroupingFixedOrder is the property the fan-out actually
// needs when anchors can tie: folding in canonical cell-index order,
// every GROUPING — including the fleet's "merge shard sub-aggregates,
// then merge those" two-level shape — yields byte-identical wire
// records. Anchor values are drawn from a tiny range so ties are common.
func TestMergeAnyGroupingFixedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		nShards := 2 + rng.Intn(7)
		runs := make([]map[string]Summary, nShards)
		for i := range runs {
			runs[i] = randSummaries(rng, 5+rng.Intn(3)) // anchors in {5,6,7}: ties likely
		}
		want := wire(t, runs)

		for rep := 0; rep < 8; rep++ {
			if got := foldGrouped(t, rng, runs); got != want {
				t.Fatalf("trial %d: grouped fold in fixed order diverged:\n got %s\nwant %s", trial, got, want)
			}
		}
	}
}

// TestMergeTieKeepsFirst pins the tie rule itself: when two shards tie on
// the anchor, the FIRST argument's anchored scalars win. This is why
// ties demand a canonical fold order — and why every caller folds in
// cell-index order.
func TestMergeTieKeepsFirst(t *testing.T) {
	mk := func(node int) Summary {
		return Summary{
			Name:     "peak",
			Kind:     KindScalar,
			Scalars:  map[string]int{"max_load": 9, "max_load_node": node},
			Anchor:   "max_load",
			Anchored: []string{"max_load_node"},
		}
	}
	ab := foldPair(t, mk(3), mk(7))
	if got := ab.Scalars["max_load_node"]; got != 3 {
		t.Errorf("tie merge kept node %d, want first argument's 3", got)
	}
	ba := foldPair(t, mk(7), mk(3))
	if got := ba.Scalars["max_load_node"]; got != 7 {
		t.Errorf("tie merge kept node %d, want first argument's 7", got)
	}
}

// TestMergeAllMismatchedNames checks that shards carrying disjoint metric
// names still aggregate: a name missing from one shard contributes only
// from the shards that have it (the fleet never requires every daemon to
// report every collector).
func TestMergeAllMismatchedNames(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randSummaries(rng, 10)
	b := randSummaries(rng, 20)
	delete(a, "latency")
	delete(b, "occupancy")
	merged, err := MergeAll([]map[string]Summary{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"latency", "occupancy", "peak"} {
		if _, ok := merged[name]; !ok {
			t.Errorf("merged map lost %q", name)
		}
	}
	if merged["latency"].Hist.Count != b["latency"].Hist.Count {
		t.Errorf("latency came from b alone, count %d want %d",
			merged["latency"].Hist.Count, b["latency"].Hist.Count)
	}
}

// TestMergeKindMismatch checks that shape confusion is an error, not a
// silent wrong answer.
func TestMergeKindMismatch(t *testing.T) {
	a := Summary{Name: "x", Kind: KindScalar}
	b := Summary{Name: "x", Kind: KindHist}
	var f Fold
	f.Add(0, a)
	f.Add(1, b)
	if f.Err() == nil {
		t.Fatal("merging mismatched kinds succeeded")
	}
}
