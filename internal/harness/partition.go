package harness

import "fmt"

// IndexRange is a half-open range [Lo, Hi) of global cell indices — the
// unit of work the distribution tier dispatches. Ranges partition the
// row-major expansion of a sweep grid (see Cell.Index for the ordering
// contract), so a range is meaningful on any machine that can expand the
// same grid.
type IndexRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Count returns the number of cells in the range.
func (r IndexRange) Count() int { return r.Hi - r.Lo }

// String renders the range in half-open interval notation.
func (r IndexRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// PartitionRangesWeighted subdivides the given ranges — disjoint,
// ascending, as Covered/Uncovered report them — into contiguous pieces of
// near-equal total weight; the fleet plans its shards with it. One range
// yields at most shards pieces and each further range adds at most one,
// because pieces never span a gap between input ranges (the cells a
// prior interrupted run left uncovered may be any union of ranges).
// weights[i] is the cost of cell i (the fleet uses topology node count),
// indexed by *global* cell index; it must extend past the highest range
// bound, and non-positive weights count as 1. Because cell indices are a
// global, deterministic property of the grid, any partition executes
// every cell exactly once wherever the pieces run, and the per-cell
// records reassemble by index into the record set (and RecordsDigest) of
// an unsharded run. Deterministic in its arguments.
func PartitionRangesWeighted(ranges []IndexRange, weights []int, shards int) []IndexRange {
	if shards <= 0 {
		return nil
	}
	w := func(i int) int {
		v := weights[i]
		if v < 1 {
			v = 1
		}
		return v
	}
	total := 0
	for _, r := range ranges {
		for i := r.Lo; i < r.Hi; i++ {
			total += w(i)
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]IndexRange, 0, shards+len(ranges))
	acc := 0 // cumulative weight over all cells walked so far
	cut := 1 // index of the next proportional boundary, at cut·total/shards
	for _, r := range ranges {
		if r.Count() <= 0 {
			continue
		}
		lo := r.Lo
		for i := r.Lo; i < r.Hi; i++ {
			acc += w(i)
			// Close the piece once the cumulative weight reaches the next
			// proportional boundary; the range end closes it regardless
			// (pieces never span gaps). Skipping boundaries the current
			// cell overshot keeps every emitted piece non-empty.
			if acc*shards >= cut*total && i+1 < r.Hi {
				out = append(out, IndexRange{Lo: lo, Hi: i + 1})
				lo = i + 1
				for acc*shards >= cut*total {
					cut++
				}
			}
		}
		out = append(out, IndexRange{Lo: lo, Hi: r.Hi})
		for acc*shards >= cut*total {
			cut++
		}
	}
	return out
}
