package metrics

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// naiveDownsample reproduces a BoundedSeries record from the full
// sequence: aggregate strides of the final stride value, plus the tail.
func naiveDownsample(vals []int, stride int, agg string) []int {
	var out []int
	for i := 0; i < len(vals); i += stride {
		acc := vals[i]
		for j := i + 1; j < i+stride && j < len(vals); j++ {
			if agg == AggSum {
				acc += vals[j]
			} else if vals[j] > acc {
				acc = vals[j]
			}
		}
		out = append(out, acc)
	}
	return out
}

// TestBoundedSeriesMatchesNaiveDownsample checks a series against a naive
// downsample of everything appended, whatever run length it was sized
// for: exactly its own (the record then holds the series' arrays), none,
// half or more. A record taken halfway stays as it was when the run goes
// on, and a second final record equals the first.
func TestBoundedSeriesMatchesNaiveDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, agg := range []string{AggMax, AggSum} {
		for _, n := range []int{0, 1, 7, 8, 9, 64, 1000, 12345} {
			for _, sized := range []int{n, 0, n / 2, n + 5} {
				checkSeries(t, rng, agg, n, sized)
			}
		}
	}
}

func checkSeries(t *testing.T, rng *rand.Rand, agg string, n, sized int) {
	t.Helper()
	s := NewBoundedSeries("k", agg, 8, 4, sized)
	full := make([]int, n)
	var half SeriesRecord
	for i := range full {
		if i == n/2 {
			half = s.Record()
		}
		full[i] = rng.Intn(100)
		s.Append(full[i])
	}
	if n > 0 && (!reflect.DeepEqual(half.Values, naiveDownsample(full[:n/2], half.Stride, agg)) && len(half.Values) > 0 ||
		!reflect.DeepEqual(half.Tail, naiveTail(full[:n/2], 4))) {
		t.Fatalf("agg=%s n=%d sized=%d: the halfway record changed: %+v", agg, n, sized, half)
	}
	rec := s.Record()
	if again := s.Record(); !reflect.DeepEqual(rec, again) {
		t.Fatalf("agg=%s n=%d sized=%d: a second record differs: %+v, %+v", agg, n, sized, rec, again)
	}
	if rec.Rounds != n {
		t.Fatalf("agg=%s n=%d: Rounds=%d", agg, n, rec.Rounds)
	}
	want := naiveDownsample(full, rec.Stride, agg)
	if !reflect.DeepEqual(rec.Values, want) && !(len(want) == 0 && len(rec.Values) == 0) {
		t.Fatalf("agg=%s n=%d stride=%d: values=%v want %v", agg, n, rec.Stride, rec.Values, want)
	}
	if wantTail := naiveTail(full, 4); !reflect.DeepEqual(rec.Tail, wantTail) {
		t.Fatalf("agg=%s n=%d: tail=%v want %v", agg, n, rec.Tail, wantTail)
	}
}

// naiveTail is the last k values of full, nil when there are none.
func naiveTail(full []int, k int) []int {
	if len(full) == 0 {
		return nil
	}
	return full[max(len(full)-k, 0):]
}

// TestBoundedSeriesMemoryBound pins the acceptance criterion: a 10⁶-round
// series stays within its configured point cap (length and capacity), so
// memory is O(cap) regardless of horizon.
func TestBoundedSeriesMemoryBound(t *testing.T) {
	const capPoints, tailCap, rounds = 512, 64, 1_000_000
	s := NewBoundedSeries("max", AggMax, capPoints, tailCap, rounds)
	for i := 0; i < rounds; i++ {
		s.Append(i % 37)
	}
	if got := cap(s.vals); got > capPoints {
		t.Errorf("internal buffer grew to cap %d > %d", got, capPoints)
	}
	rec := s.Record()
	if len(rec.Values) > capPoints+1 {
		t.Errorf("record carries %d values > cap %d", len(rec.Values), capPoints)
	}
	if len(rec.Tail) != tailCap {
		t.Errorf("tail length %d, want %d", len(rec.Tail), tailCap)
	}
	if rec.Stride*len(rec.Values) < rounds {
		t.Errorf("stride %d × %d values does not cover %d rounds", rec.Stride, len(rec.Values), rounds)
	}
	// Appending must not allocate once the buffers exist.
	allocs := testing.AllocsPerRun(1000, func() { s.Append(5) })
	if allocs > 0 {
		t.Errorf("Append allocates %.1f times per call", allocs)
	}
}

func TestHistExactAndLog2(t *testing.T) {
	h := NewHist()
	for v := 0; v < 10; v++ {
		h.Add(v) // exact range
	}
	h.Add(64)   // first log2 bucket [64,128)
	h.Add(127)  // same bucket
	h.Add(128)  // [128,256)
	h.Add(5000) // [4096,8192)
	rec := h.Record()
	if rec.Count != 14 || rec.Min != 0 || rec.Max != 5000 {
		t.Fatalf("count/min/max = %d/%d/%d", rec.Count, rec.Min, rec.Max)
	}
	if rec.Sum != 45+64+127+128+5000 {
		t.Fatalf("sum = %d", rec.Sum)
	}
	if len(rec.Exact) != 10 {
		t.Fatalf("exact buckets = %v", rec.Exact)
	}
	if rec.Log2[0] != 2 || rec.Log2[1] != 1 {
		t.Fatalf("log2 buckets = %v", rec.Log2)
	}
	if got := rec.Log2[logBucket(5000)]; got != 1 {
		t.Fatalf("bucket for 5000 holds %d", got)
	}
}

func TestHistQuantileExactRangeMatchesNearestRank(t *testing.T) {
	h := NewHist()
	for v := 1; v <= 100; v++ {
		h.Add(v % 50) // all below HistExactLimit
	}
	rec := h.Record()
	// Nearest-rank on the sorted sample 0,0,1,1,…,49,49.
	if got := rec.Quantile(50); got != 24 {
		t.Errorf("p50 = %d, want 24", got)
	}
	if got := rec.Quantile(100); got != 49 {
		t.Errorf("p100 = %d, want 49", got)
	}
	if got := rec.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := (&HistRecord{}).Quantile(50); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
}

func TestHistQuantileLogTailReturnsBucketFloor(t *testing.T) {
	h := NewHist()
	for i := 0; i < 100; i++ {
		h.Add(200) // bucket [128, 256)
	}
	if got := h.Quantile(50); got != 128 {
		t.Errorf("p50 = %d, want bucket floor 128", got)
	}
}

func TestMergeHistograms(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := 0; i < 60; i++ {
		a.Add(1)
	}
	for i := 0; i < 40; i++ {
		b.Add(9)
	}
	sa := Summary{Name: NameLatency, Kind: KindHist, Hist: a.Record(),
		Scalars: map[string]int{"count": 60, "sum": 60, "max": 1, "p50": a.Quantile(50), "p99": a.Quantile(99)}}
	sb := Summary{Name: NameLatency, Kind: KindHist, Hist: b.Record(),
		Scalars: map[string]int{"count": 40, "sum": 360, "max": 9, "p50": b.Quantile(50), "p99": b.Quantile(99)}}
	m, err := Merge(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hist.Count != 100 || m.Hist.Sum != 420 || m.Hist.Max != 9 || m.Hist.Min != 1 {
		t.Fatalf("merged hist = %+v", m.Hist)
	}
	if m.Scalars["count"] != 100 || m.Scalars["sum"] != 420 || m.Scalars["max"] != 9 {
		t.Fatalf("merged scalars = %v", m.Scalars)
	}
	if m.Scalars["p50"] != 1 || m.Scalars["p99"] != 9 {
		t.Fatalf("merged quantiles = %v", m.Scalars)
	}
}

func TestMergeScalarsTakesMax(t *testing.T) {
	a := Summary{Name: NameMaxLoad, Kind: KindScalar, Scalars: map[string]int{"max_load": 3}}
	b := Summary{Name: NameMaxLoad, Kind: KindScalar, Scalars: map[string]int{"max_load": 7}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scalars["max_load"] != 7 {
		t.Fatalf("merged = %v", m.Scalars)
	}
	if _, err := Merge(a, Summary{Name: "other", Kind: KindScalar}); err == nil {
		t.Error("merging different names did not fail")
	}
}

// TestMergeAnchoredKeepsArgmaxCoherent pins the winner-takes-all rule:
// merged argmax-position scalars (node, round) come from the run that
// actually attained the maximum, never mixed across runs.
func TestMergeAnchoredKeepsArgmaxCoherent(t *testing.T) {
	a := NewMaxLoad()
	a.maxLoad, a.node, a.round, a.maxPhysical = 5, 2, 40, 6
	b := NewMaxLoad()
	b.maxLoad, b.node, b.round, b.maxPhysical = 3, 7, 390, 9
	m, err := Merge(a.Summarize(), b.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	// The argmax position follows the winning run (cell A: load 5 at
	// node 2, round 40); max_physical_load is an independent maximum and
	// takes the element-wise max (cell B's staging spike of 9).
	want := map[string]int{"max_load": 5, "max_load_node": 2, "max_load_round": 40, "max_physical_load": 9}
	if !reflect.DeepEqual(m.Scalars, want) {
		t.Errorf("merged = %v, want %v", m.Scalars, want)
	}
	if m.Anchor != "max_load" {
		t.Errorf("merged anchor = %q", m.Anchor)
	}
	// Order-independent winner.
	rev, err := Merge(b.Summarize(), a.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rev.Scalars, want) {
		t.Errorf("reversed merge = %v, want %v", rev.Scalars, want)
	}
}

func TestMergeAllAndRecords(t *testing.T) {
	runs := []map[string]Summary{
		{NameMaxLoad: {Name: NameMaxLoad, Kind: KindScalar, Scalars: map[string]int{"max_load": 2}}},
		{NameMaxLoad: {Name: NameMaxLoad, Kind: KindScalar, Scalars: map[string]int{"max_load": 5}}},
	}
	m, err := MergeAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	if m[NameMaxLoad].Scalars["max_load"] != 5 {
		t.Fatalf("merged = %v", m)
	}
	recs := Records(map[string]Summary{
		"b": {Name: "b", Kind: KindScalar},
		"a": {Name: "a", Kind: KindScalar},
	})
	if len(recs) != 2 || recs[0].Name != "a" || recs[1].Name != "b" {
		t.Fatalf("records not name-sorted: %v", recs)
	}
	if Records(nil) != nil {
		t.Error("empty map should render nil records")
	}
}

// TestSummaryJSONDeterministic pins the wire form: marshaling the same
// summary twice yields identical bytes (scalars are a map, but
// encoding/json sorts map keys).
func TestSummaryJSONDeterministic(t *testing.T) {
	s := Summary{Name: NameLatency, Kind: KindHist,
		Scalars: map[string]int{"p99": 4, "count": 10, "max": 4, "p50": 1, "sum": 15, "p90": 3},
		Hist:    &HistRecord{Count: 10, Sum: 15, Max: 4, Exact: []int{2, 4, 2, 1, 1}},
	}
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(s)
	if string(a) != string(b) {
		t.Error("summary JSON not deterministic")
	}
	var back Summary
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the summary: %+v vs %+v", s, back)
	}
}
