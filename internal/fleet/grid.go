package fleet

import (
	"fmt"
	"sync"

	"smallbuffers/internal/harness"
)

// grid is the merge of a run without a store: the records of a [0,n)
// grid held in memory by index. It refuses what the store refuses — an
// index outside the grid or one already merged — so both merges hold
// the coordinator to "exactly once" the same way. It is safe for
// concurrent use.
type grid struct {
	mu    sync.Mutex
	recs  []harness.CellRecord
	have  []bool
	count int
}

func newGrid(n int) *grid {
	return &grid{recs: make([]harness.CellRecord, n), have: make([]bool, n)}
}

// Append merges one record.
func (g *grid) Append(rec harness.CellRecord) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rec.Index < 0 || rec.Index >= len(g.recs) {
		return fmt.Errorf("record index %d outside the %d-cell grid", rec.Index, len(g.recs))
	}
	if g.have[rec.Index] {
		return fmt.Errorf("record %d merged twice", rec.Index)
	}
	g.recs[rec.Index], g.have[rec.Index] = rec, true
	g.count++
	return nil
}

// Count returns the number of merged cells.
func (g *grid) Count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count
}

// UncoveredIn lists the maximal sub-ranges of r (clamped to the grid)
// whose cells are not merged yet.
func (g *grid) UncoveredIn(r harness.IndexRange) []harness.IndexRange {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []harness.IndexRange
	for i := max(r.Lo, 0); i < min(r.Hi, len(g.recs)); i++ {
		if g.have[i] {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Hi == i {
			out[n-1].Hi = i + 1
		} else {
			out = append(out, harness.IndexRange{Lo: i, Hi: i + 1})
		}
	}
	return out
}

// records returns the merged records in index order.
func (g *grid) records() []harness.CellRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]harness.CellRecord, 0, g.count)
	for i, rec := range g.recs {
		if g.have[i] {
			out = append(out, rec)
		}
	}
	return out
}

// Scan calls fn on every merged record in index order.
func (g *grid) Scan(fn func(harness.CellRecord) error) error {
	for _, rec := range g.records() {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Digest returns the records digest of the merged cells.
func (g *grid) Digest() (string, error) {
	return harness.RecordsDigest(g.records()), nil
}
