package metrics

import "slices"

// Aggregation names for downsampled series points.
const (
	AggMax = "max" // a point is the maximum of the rounds it covers
	AggSum = "sum" // a point is the sum over the rounds it covers
)

// SeriesRecord is the canonical wire form of one bounded per-round
// series: Values[i] aggregates rounds [i·Stride, (i+1)·Stride) under Agg
// (the final point may cover fewer rounds), and Tail holds the exact
// per-round values of the last min(len(Tail), Rounds) rounds so the most
// recent behavior is always available at full resolution.
type SeriesRecord struct {
	Key    string `json:"key"`
	Agg    string `json:"agg"`
	Stride int    `json:"stride"`
	Rounds int    `json:"rounds"`
	Values []int  `json:"values,omitempty"`
	Tail   []int  `json:"tail,omitempty"`
}

// BoundedSeries folds an unbounded per-round sequence into O(cap) memory:
// a stride-doubling downsampled view of the whole run (when the buffer
// fills, adjacent points merge pairwise and the stride doubles — the
// simulator's own small-buffers discipline) plus an exact ring-buffer
// tail of the most recent rounds. A series is sized to its run: for a run
// of r rounds it allocates min(cap, r+1) points and a tail of
// min(tailCap, r) rounds, while cap and tailCap stay the logical bounds,
// so its record is the same whatever it was sized for. Appending is
// amortized O(1) and allocates nothing after construction while the run
// is no longer than declared, so a 10⁶-round run costs the same memory as
// a 10³-round one. Record hands the series' own arrays over instead of
// copying them; an Append after a Record copies them first, so a record
// stays as it was taken and the run's one final record copies nothing.
type BoundedSeries struct {
	key     string
	agg     string
	cap     int
	tailCap int
	stride  int
	vals    []int
	pend    int // accumulator for the in-progress point
	pendN   int // rounds folded into pend
	n       int // total values appended
	tail    []int
	tailAt  int  // once the tail is full, its oldest value and next write position
	handed  bool // a record holds vals and tail
}

// NewBoundedSeries returns a bounded series with at most cap downsampled
// points (rounded up to the next even number, minimum 2) and an exact
// tail of tailCap rounds (0 disables the tail), sized for a run of rounds
// rounds.
func NewBoundedSeries(key, agg string, capPoints, tailCap, rounds int) *BoundedSeries {
	capPoints = max(capPoints+capPoints%2, 2)
	tailCap, rounds = max(tailCap, 0), max(rounds, 0)
	return &BoundedSeries{key: key, agg: agg, cap: capPoints, tailCap: tailCap, stride: 1,
		vals: make([]int, 0, min(capPoints, rounds+1)), tail: make([]int, 0, min(tailCap, rounds))}
}

// Append folds the next round's value into the series.
func (s *BoundedSeries) Append(v int) {
	if s.handed {
		s.vals, s.tail, s.handed = slices.Clone(s.vals), slices.Clone(s.tail), false
	}
	s.n++
	if len(s.tail) < s.tailCap {
		s.tail = append(s.tail, v)
	} else if s.tailCap > 0 {
		s.tail[s.tailAt] = v
		s.tailAt = (s.tailAt + 1) % s.tailCap
	}
	if s.pendN == 0 {
		s.pend = v
	} else {
		s.pend = s.fold(s.pend, v)
	}
	s.pendN++
	if s.pendN < s.stride {
		return
	}
	s.vals = append(s.vals, s.pend)
	s.pendN = 0
	if len(s.vals) == s.cap {
		// Compact: merge adjacent pairs in place and double the stride.
		for i := 0; i < s.cap/2; i++ {
			s.vals[i] = s.fold(s.vals[2*i], s.vals[2*i+1])
		}
		s.vals = s.vals[:s.cap/2]
		s.stride *= 2
	}
}

func (s *BoundedSeries) fold(a, b int) int {
	if s.agg == AggSum {
		return a + b
	}
	return max(a, b)
}

// Record renders the series in canonical wire form. The in-progress
// partial point (covering the trailing n mod stride rounds) is included
// as the final value, so the record is a pure function of the appended
// sequence. The record holds the series' own arrays, which the next
// Append copies before it changes them.
func (s *BoundedSeries) Record() SeriesRecord {
	if s.tailAt > 0 { // rotate the ring into order, in place
		slices.Reverse(s.tail[:s.tailAt])
		slices.Reverse(s.tail[s.tailAt:])
		slices.Reverse(s.tail)
		s.tailAt = 0
	}
	rec := SeriesRecord{Key: s.key, Agg: s.agg, Stride: s.stride, Rounds: s.n, Values: s.vals, Tail: s.tail}
	s.handed = true
	if s.pendN > 0 {
		rec.Values = append(rec.Values, s.pend)
	}
	if len(rec.Tail) == 0 {
		rec.Tail = nil
	}
	return rec
}
