// Package stats provides the small reporting toolkit used by the
// experiment harness: aligned text tables, numeric summaries, and series
// helpers. Everything renders to plain text so experiment output diffs
// cleanly and embeds in EXPERIMENTS.md.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is an ordered grid with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: append([]string(nil), columns...)}
}

// AddRow appends a row; values are stringified with %v (floats with %.3g).
func (t *Table) AddRow(values ...interface{}) *Table {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'g', 4, 64)
		case fmt.Stringer:
			row[i] = x.String()
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
	return t
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.Rows) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title))); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	underline := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		underline[i] = strings.Repeat("=", len([]rune(c)))
	}
	if _, err := fmt.Fprintln(tw, strings.Join(underline, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Summary aggregates a numeric sample.
type Summary struct {
	Count    int
	Min, Max float64
	Mean     float64
	sum      float64
	values   []float64
}

// Add folds a value into the summary.
func (s *Summary) Add(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.sum += v
	s.Mean = s.sum / float64(s.Count)
	s.values = append(s.values, v)
}

// AddInt folds an integer value.
func (s *Summary) AddInt(v int) { s.Add(float64(v)) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest-rank, or
// 0 for an empty summary.
func (s *Summary) Percentile(p float64) float64 { return s.Quantiles(p)[0] }

// Quantiles returns the percentiles at each requested p (0 ≤ p ≤ 100) in
// order, by the same nearest-rank rule as Percentile; empty summaries
// yield zeros. One call sorts once, so tables asking for p50/p90/p99 pay
// a single O(n log n).
func (s *Summary) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if s.Count == 0 || len(ps) == 0 {
		return out
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	for i, p := range ps {
		rank := int(p/100*float64(s.Count)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= s.Count {
			rank = s.Count - 1
		}
		out[i] = sorted[rank]
	}
	return out
}

// String renders "n=… min=… mean=… max=…".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d min=%g mean=%.3g max=%g", s.Count, s.Min, s.Mean, s.Max)
}

// HistBar is one labeled count of a histogram rendering.
type HistBar struct {
	Label string
	Count int
}

// Histogram renders labeled counts as fixed-width ASCII bars: every bar
// is scaled to the maximum count over `width` columns, with the raw count
// alongside, so distributions diff cleanly in experiment output.
//
//	0    ██████████████████████████████  1204
//	1    ███████▌                         301
//	2–3  ▏                                  2
//
// Zero-count bars render an empty column. width < 1 defaults to 30.
func Histogram(w io.Writer, title string, bars []HistBar, width int) error {
	if width < 1 {
		width = 30
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	maxCount, labelW, countW := 0, 0, 1
	for _, b := range bars {
		if b.Count > maxCount {
			maxCount = b.Count
		}
		if l := len([]rune(b.Label)); l > labelW {
			labelW = l
		}
		if l := len(strconv.Itoa(b.Count)); l > countW {
			countW = l
		}
	}
	for _, b := range bars {
		cells := 0
		if maxCount > 0 {
			// Half-up rounding in units of half-cells (a full bar is
			// 2·width half-cells) so small nonzero counts stay visible
			// as "▌".
			cells = (4*width*b.Count + maxCount) / (2 * maxCount)
			if cells == 0 && b.Count > 0 {
				cells = 1
			}
		}
		bar := strings.Repeat("█", cells/2)
		if cells%2 == 1 {
			bar += "▌"
		}
		if _, err := fmt.Fprintf(w, "%-*s  %-*s %*d\n", labelW, b.Label, width, bar, countW, b.Count); err != nil {
			return err
		}
	}
	return nil
}

// CheckMark renders "✓" when ok, "✗ VIOLATION" otherwise; experiment tables
// use it for bound assertions.
func CheckMark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗ VIOLATION"
}
