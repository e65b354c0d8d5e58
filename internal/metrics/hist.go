package metrics

import "math/bits"

// HistExactLimit is the boundary of a histogram's exact range: values in
// [0, HistExactLimit) get one bucket each, larger values fall into log2
// buckets [2^j, 2^(j+1)). Small occupancies and latencies — the regime the
// paper's bounds live in — are therefore counted exactly, while the tail
// stays O(log max) wide.
const HistExactLimit = 64

// HistRecord is the canonical wire form of a histogram: exact low
// buckets, log2 tail buckets, and the exact count/sum/min/max totals.
// Exact[v] counts observations equal to v (trailing zeros trimmed);
// Log2[i] counts observations in [HistExactLimit·2^i, HistExactLimit·2^(i+1)).
type HistRecord struct {
	Count int   `json:"count"`
	Sum   int   `json:"sum"`
	Min   int   `json:"min"`
	Max   int   `json:"max"`
	Exact []int `json:"exact,omitempty"`
	Log2  []int `json:"log2,omitempty"`
}

// Hist accumulates a distribution of non-negative integers in O(1) per
// observation and O(HistExactLimit + log max) memory.
type Hist struct {
	count int
	sum   int
	min   int
	max   int
	exact [HistExactLimit]int
	log2  []int
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// Add folds one observation (negative values clamp to 0).
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v < HistExactLimit {
		h.exact[v]++
		return
	}
	i := logBucket(v)
	for len(h.log2) <= i {
		h.log2 = append(h.log2, 0)
	}
	h.log2[i]++
}

// addZeros folds k observations of 0.
func (h *Hist) addZeros(k int) {
	if k <= 0 {
		return
	}
	if h.count == 0 {
		h.max = 0
	}
	h.min = 0
	h.count += k
	h.exact[0] += k
}

// logBucket maps v ≥ HistExactLimit to its log2 bucket index:
// bucket i covers [HistExactLimit·2^i, HistExactLimit·2^(i+1)).
func logBucket(v int) int {
	return bits.Len(uint(v)) - bits.Len(uint(HistExactLimit))
}

// Count returns the number of observations.
func (h *Hist) Count() int { return h.count }

// Sum returns the exact sum of observations.
func (h *Hist) Sum() int { return h.sum }

// Max returns the exact maximum (0 when empty).
func (h *Hist) Max() int { return h.max }

// Record renders the histogram in canonical wire form.
func (h *Hist) Record() *HistRecord {
	rec := &HistRecord{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	last := -1
	for v, c := range h.exact {
		if c > 0 {
			last = v
		}
	}
	if last >= 0 {
		rec.Exact = append([]int(nil), h.exact[:last+1]...)
	}
	if len(h.log2) > 0 {
		rec.Log2 = append([]int(nil), h.log2...)
	}
	return rec
}

// Quantile on the live histogram (see HistRecord.Quantile).
func (h *Hist) Quantile(p int) int { return h.Record().Quantile(p) }

// Quantile returns the p-th percentile (an integer percent, 0 ≤ p ≤ 100)
// by nearest-rank: exact for values below HistExactLimit, the bucket's
// lower bound for the log2 tail, and 0 for an empty histogram. The rank
// rule is round-half-up of p·Count/100, computed in exact integer
// arithmetic: quantiles feed canonical integer-only wire records, and
// the float form of the same rounding (p/100·Count + 0.5) is not
// bit-reproducible across architectures — Go may fuse the multiply-add
// into an FMA. Exact-range quantiles agree with a nearest-rank pass over
// the full sample (stats.Summary.Percentile at whole percents).
func (r *HistRecord) Quantile(p int) int {
	if r == nil || r.Count == 0 {
		return 0
	}
	rank := (p*r.Count+50)/100 - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= r.Count {
		rank = r.Count - 1
	}
	cum := 0
	for v, c := range r.Exact {
		cum += c
		if rank < cum {
			return v
		}
	}
	for i, c := range r.Log2 {
		cum += c
		if rank < cum {
			return HistExactLimit << i
		}
	}
	// All mass accounted for above; reaching here means rank beyond the
	// last bucket, which the clamp prevents.
	return r.Max
}

// merge folds another record into r (nil and empty records are no-ops).
func (r *HistRecord) merge(o *HistRecord) {
	if o == nil || o.Count == 0 {
		return
	}
	if r.Count == 0 || o.Min < r.Min {
		r.Min = o.Min
	}
	if r.Count == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.Count += o.Count
	r.Sum += o.Sum
	for len(r.Exact) < len(o.Exact) {
		r.Exact = append(r.Exact, 0)
	}
	for v, c := range o.Exact {
		r.Exact[v] += c
	}
	for len(r.Log2) < len(o.Log2) {
		r.Log2 = append(r.Log2, 0)
	}
	for i, c := range o.Log2 {
		r.Log2[i] += c
	}
}
