package metrics

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refMerge is Merge as it was before Fold: one pairwise step of the
// index-order fold, kept as the reference the fold is checked against.
// Anchor ties keep the first argument.
func refMerge(a, b Summary) (Summary, error) {
	if a.Name != b.Name || a.Kind != b.Kind {
		return Summary{}, fmt.Errorf("cannot merge %s/%s with %s/%s", a.Name, a.Kind, b.Name, b.Kind)
	}
	keys := map[string]bool{}
	for k := range a.Scalars {
		keys[k] = true
	}
	for k := range b.Scalars {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out := Summary{Name: a.Name, Kind: a.Kind, Anchor: a.Anchor, Anchored: a.Anchored}
	if a.Hist != nil || b.Hist != nil {
		h := &HistRecord{}
		h.merge(a.Hist)
		h.merge(b.Hist)
		out.Hist = h
		out.Scalars = histScalars(h, sorted)
		return out, nil
	}
	if len(sorted) > 0 {
		out.Scalars = make(map[string]int, len(sorted))
		for _, k := range sorted {
			out.Scalars[k] = max(a.Scalars[k], b.Scalars[k])
		}
	}
	if anchor := a.Anchor; anchor != "" && anchor == b.Anchor && len(out.Scalars) > 0 {
		winner := a
		if b.Scalars[anchor] > a.Scalars[anchor] {
			winner = b
		}
		for _, k := range append([]string{anchor}, winner.Anchored...) {
			if v, ok := winner.Scalars[k]; ok {
				out.Scalars[k] = v
			} else {
				delete(out.Scalars, k)
			}
		}
	}
	return out, nil
}

// refMergeAll folds the cells pairwise with refMerge in cell-index order.
func refMergeAll(cells []map[string]Summary) (map[string]Summary, error) {
	out := map[string]Summary{}
	for _, m := range cells {
		for _, name := range SortedNames(m) {
			prev, ok := out[name]
			if !ok {
				out[name] = m[name]
				continue
			}
			merged, err := refMerge(prev, m[name])
			if err != nil {
				return nil, err
			}
			out[name] = merged
		}
	}
	return out, nil
}

// foldCell draws one cell's summaries: a histogram, a scalar summary
// whose keys come and go and may be negative, and an anchored summary
// whose anchor values tie often and whose keys also come and go. Any
// name may be missing from a cell, and a lone summary keeps a series.
func foldCell(rng *rand.Rand) map[string]Summary {
	out := map[string]Summary{}
	if rng.Intn(5) > 0 {
		h := NewHist()
		for i, n := 0, rng.Intn(30); i < n; i++ {
			h.Add(rng.Intn(200))
		}
		hr := h.Record()
		sc := map[string]int{"count": hr.Count, "p50": hr.Quantile(50), "p99": hr.Quantile(99), "extra": rng.Intn(9)}
		if rng.Intn(3) == 0 {
			delete(sc, "p99")
		}
		out["latency"] = Summary{Name: "latency", Kind: KindHist, Hist: hr, Scalars: sc}
	}
	if rng.Intn(5) > 0 {
		sc := map[string]int{}
		for _, k := range []string{"rounds", "drops", "skew"} {
			if rng.Intn(3) > 0 {
				sc[k] = rng.Intn(7) - 3
			}
		}
		s := Summary{Name: "occupancy", Kind: KindScalar, Scalars: sc}
		if rng.Intn(4) == 0 {
			s.Series = []SeriesRecord{{Key: "load", Stride: 1, Values: []int{rng.Intn(5)}}}
		}
		out["occupancy"] = s
	}
	if rng.Intn(5) > 0 {
		sc := map[string]int{}
		for _, k := range []string{"max_load", "max_load_node", "busiest_link", "max_physical_load"} {
			if rng.Intn(5) > 0 {
				sc[k] = rng.Intn(3) - 1
			}
		}
		out["peak"] = Summary{Name: "peak", Kind: KindScalar, Scalars: sc,
			Anchor: "max_load", Anchored: []string{"max_load_node", "busiest_link"}}
	}
	return out
}

func wireOf(t *testing.T, m map[string]Summary) string {
	t.Helper()
	b, err := json.Marshal(Records(m))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFoldAnyOrderMatchesIndexOrder is the fold's contract: folding a
// grid's cells in any order gives the wire records of the pairwise merge
// in cell-index order, with anchor ties going to the lower index, names
// missing from some cells, keys missing from some summaries, histograms,
// and a lone summary kept whole. A kind clash fails both.
func TestFoldAnyOrderMatchesIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		cells := make([]map[string]Summary, 1+rng.Intn(9))
		for i := range cells {
			cells[i] = foldCell(rng)
		}
		clash := trial%10 == 9
		if clash {
			cells = append(cells,
				map[string]Summary{"occupancy": {Name: "occupancy", Kind: KindScalar}},
				map[string]Summary{"occupancy": {Name: "occupancy", Kind: KindHist, Hist: &HistRecord{}}})
		}
		want, wantErr := refMergeAll(cells)
		if (wantErr != nil) != clash {
			t.Fatalf("trial %d: reference merge error %v, clash %v", trial, wantErr, clash)
		}
		if got, err := MergeAll(cells); (err != nil) != clash || !clash && wireOf(t, got) != wireOf(t, want) {
			t.Fatalf("trial %d: MergeAll = %s, %v; want %s, %v", trial, wireOf(t, got), err, wireOf(t, want), wantErr)
		}
		for rep := 0; rep < 6; rep++ {
			var f Fold
			for _, i := range rng.Perm(len(cells)) {
				f.Add(i, Records(cells[i])...)
			}
			if clash {
				if f.Err() == nil {
					t.Fatalf("trial %d: the fold took a kind clash", trial)
				}
				continue
			}
			if f.Err() != nil {
				t.Fatalf("trial %d: %v", trial, f.Err())
			}
			got := f.Map()
			if g, w := wireOf(t, got), wireOf(t, want); g != w {
				t.Fatalf("trial %d: fold in a permuted order gave\n %s\nthe index-order merge\n %s", trial, g, w)
			}
			// What Map returned shares nothing with the fold: folding a
			// copy of every cell again leaves it unchanged.
			before := wireOf(t, got)
			for i := range cells {
				f.Add(i, Records(cells[i])...)
			}
			if after := wireOf(t, got); after != before {
				t.Fatalf("trial %d: a later Add changed an earlier Map:\n %s\n %s", trial, before, after)
			}
		}
	}
}

// TestFoldCountsDroppedSummaries checks the per-summary clash report the
// live view counts: the clashing summary is dropped, the rest folds.
func TestFoldCountsDroppedSummaries(t *testing.T) {
	var f Fold
	scalar := Summary{Name: "x", Kind: KindScalar, Scalars: map[string]int{"v": 3}}
	if n := f.Add(0, scalar, Summary{Name: "y", Kind: KindScalar}); n != 0 {
		t.Fatalf("dropped %d of the first cell's summaries", n)
	}
	if n := f.Add(1, Summary{Name: "x", Kind: KindHist, Hist: &HistRecord{}}, Summary{Name: "y", Kind: KindScalar}); n != 1 {
		t.Fatalf("dropped %d summaries, want the one clash", n)
	}
	if f.Err() == nil {
		t.Fatal("Err is nil after a clash")
	}
	if got := f.Map()["x"]; got.Kind != KindScalar || got.Scalars["v"] != 3 {
		t.Errorf("x = %+v, want the scalar summary alone", got)
	}
}
