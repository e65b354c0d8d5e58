package fleet

import (
	"bytes"
	"fmt"
	"sync"

	"smallbuffers/internal/harness"
)

// grid is the merge of a run without a store: the records of a [0,n)
// grid and their canonical encodings, held in memory by index. It
// refuses what the store refuses — an index outside the grid or one
// already merged — so both merges hold the coordinator to "exactly
// once" the same way. It is safe for concurrent use.
type grid struct {
	mu    sync.Mutex
	recs  []harness.CellRecord
	lines [][]byte // nil for a cell not merged yet
	count int
}

func newGrid(n int) *grid {
	return &grid{recs: make([]harness.CellRecord, n), lines: make([][]byte, n)}
}

// Append merges one record with its canonical encoding, of which it
// keeps a copy.
func (g *grid) Append(rec harness.CellRecord, line []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rec.Index < 0 || rec.Index >= len(g.recs) {
		return fmt.Errorf("record index %d outside the %d-cell grid", rec.Index, len(g.recs))
	}
	if g.lines[rec.Index] != nil {
		return fmt.Errorf("record %d merged twice", rec.Index)
	}
	g.recs[rec.Index], g.lines[rec.Index] = rec, bytes.Clone(line)
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
		if g.lines[i] != nil {
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
		if g.lines[i] != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Digest returns the records digest of the merged cells, hashed from
// their encodings.
func (g *grid) Digest() (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := harness.NewRecordsDigester()
	for i, line := range g.lines {
		if line == nil {
			continue
		}
		if err := d.AddEncoded(i, g.recs[i].Faults != "", line); err != nil {
			return "", err
		}
	}
	return d.Sum(), nil
}
