package metrics

import (
	"fmt"
	"maps"
	"slices"

	"smallbuffers/internal/stats"
)

// Bars renders the histogram as labeled counts for stats.Histogram: the
// exact range coarsened to at most 16 bars (wide distributions group
// into equal-width ranges), then one bar per log2 tail bucket
// ("64–127"). Interior zero-count bars are kept so the shape of the
// distribution stays visible.
func (r *HistRecord) Bars() []stats.HistBar {
	if r == nil {
		return nil
	}
	const maxExactBars = 16
	group := (len(r.Exact) + maxExactBars - 1) / maxExactBars
	if group < 1 {
		group = 1
	}
	var out []stats.HistBar
	for lo := 0; lo < len(r.Exact); lo += group {
		hi, count := lo, 0
		for v := lo; v < lo+group && v < len(r.Exact); v++ {
			count += r.Exact[v]
			hi = v
		}
		label := fmt.Sprintf("%d", lo)
		if hi > lo {
			label = fmt.Sprintf("%d–%d", lo, hi)
		}
		out = append(out, stats.HistBar{Label: label, Count: count})
	}
	for i, c := range r.Log2 {
		lo := HistExactLimit << i
		out = append(out, stats.HistBar{Label: fmt.Sprintf("%d–%d", lo, 2*lo-1), Count: c})
	}
	return out
}

// ScalarLine renders the summary's scalars as "k=v k=v …" in sorted key
// order — the one-line form the CLIs print.
func (s Summary) ScalarLine() string {
	line := ""
	for _, k := range slices.Sorted(maps.Keys(s.Scalars)) {
		if line != "" {
			line += "  "
		}
		line += fmt.Sprintf("%s=%d", k, s.Scalars[k])
	}
	return line
}
