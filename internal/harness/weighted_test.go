package harness

import (
	"fmt"
	"testing"
)

// checkCoverage asserts that got splits want exactly: contiguous,
// non-overlapping pieces, in order, never spanning a gap between input
// ranges.
func checkCoverage(t *testing.T, want, got []IndexRange) {
	t.Helper()
	wi := 0
	at := -1
	for _, g := range got {
		if g.Count() <= 0 {
			t.Fatalf("empty piece %v in %v", g, got)
		}
		if at < 0 {
			if wi >= len(want) || g.Lo != want[wi].Lo {
				t.Fatalf("piece %v does not start range %d of %v", g, wi, want)
			}
			at = g.Lo
		}
		if g.Lo != at {
			t.Fatalf("piece %v not contiguous at %d (pieces %v)", g, at, got)
		}
		at = g.Hi
		if at > want[wi].Hi {
			t.Fatalf("piece %v overruns range %v", g, want[wi])
		}
		if at == want[wi].Hi {
			wi++
			at = -1
		}
	}
	if wi != len(want) || at != -1 {
		t.Fatalf("pieces %v do not cover %v", got, want)
	}
}

func TestPartitionRangesWeighted(t *testing.T) {
	weights := make([]int, 40)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	owed := []IndexRange{{Lo: 3, Hi: 10}, {Lo: 14, Hi: 15}, {Lo: 20, Hi: 38}}
	got := PartitionRangesWeighted(owed, weights, 5)
	checkCoverage(t, owed, got)

	// Pieces never span the gaps between input ranges.
	for _, g := range got {
		inside := false
		for _, o := range owed {
			if g.Lo >= o.Lo && g.Hi <= o.Hi {
				inside = true
			}
		}
		if !inside {
			t.Fatalf("piece %v spans a gap (owed %v)", g, owed)
		}
	}

	// More shards than cells: every cell its own piece at most.
	got = PartitionRangesWeighted([]IndexRange{{Lo: 0, Hi: 3}}, weights, 10)
	checkCoverage(t, []IndexRange{{Lo: 0, Hi: 3}}, got)
	if len(got) > 3 {
		t.Fatalf("%d pieces for 3 cells", len(got))
	}

	if PartitionRangesWeighted(nil, weights, 4) != nil {
		t.Fatal("no ranges produced pieces")
	}
	if PartitionRangesWeighted([]IndexRange{{Lo: 0, Hi: 0}}, weights, 4) != nil {
		t.Fatal("an empty range produced pieces")
	}
	if PartitionRangesWeighted(owed, weights, 0) != nil {
		t.Fatal("zero shards produced pieces")
	}

	// One range under uniform weights: near-equal cell counts.
	got = unitPartition(100, 8)
	checkCoverage(t, []IndexRange{{Lo: 0, Hi: 100}}, got)
	for _, g := range got {
		if g.Count() < 100/8 || g.Count() > 100/8+1 {
			t.Fatalf("uniform weights produced unbalanced piece %v in %v", g, got)
		}
	}

	// One cell carrying half the total weight gets a shard (nearly) to
	// itself while the rest share the light cells.
	skewed := make([]int, 64)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed[0] = 63
	whole := []IndexRange{{Lo: 0, Hi: 64}}
	got = PartitionRangesWeighted(whole, skewed, 4)
	checkCoverage(t, whole, got)
	if got[0].Count() > 2 {
		t.Fatalf("heavy cell not isolated: first piece %v of %v", got[0], got)
	}
	// Deterministic: same inputs, same pieces.
	if again := PartitionRangesWeighted(whole, skewed, 4); fmt.Sprint(got) != fmt.Sprint(again) {
		t.Fatalf("partition not deterministic: %v vs %v", got, again)
	}

	// Non-positive weights are clamped to 1, never dropped.
	checkCoverage(t, []IndexRange{{Lo: 0, Hi: 3}}, PartitionRangesWeighted([]IndexRange{{Lo: 0, Hi: 3}}, []int{0, -5, 2}, 2))
}
