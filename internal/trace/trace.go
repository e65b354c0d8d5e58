// Package trace records executions and renders them: JSON event logs for
// machine consumption, ASCII occupancy heatmaps for eyeballing runs, and
// the Figure 1 hierarchical-partition diagram.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Event is one recorded simulation event.
type Event struct {
	Round int    `json:"round"`
	Kind  string `json:"kind"` // "inject", "accept", "forward", "deliver"
	Pkt   uint64 `json:"pkt"`
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	From  int    `json:"from,omitempty"`
	To    int    `json:"to,omitempty"`
}

// Recorder is an engine observer that captures events and the per-round
// occupancy matrix.
type Recorder struct {
	metrics.NopObserver
	// Events in order. Disable with CaptureEvents=false for long runs.
	Events        []Event
	CaptureEvents bool
	// Loads[t][v] is the post-forwarding occupancy of buffer v at round t.
	Loads [][]int
}

// NewRecorder returns a recorder capturing both events and loads.
func NewRecorder() *Recorder { return &Recorder{CaptureEvents: true} }

// OnInject implements metrics.Observer.
func (r *Recorder) OnInject(round int, pkts []packet.Packet) {
	if !r.CaptureEvents {
		return
	}
	for _, p := range pkts {
		r.Events = append(r.Events, Event{
			Round: round, Kind: "inject", Pkt: uint64(p.ID), Src: int(p.Src), Dst: int(p.Dst),
		})
	}
}

// OnForward implements metrics.Observer.
func (r *Recorder) OnForward(round int, moves []metrics.Move) {
	if !r.CaptureEvents {
		return
	}
	for _, m := range moves {
		kind := "forward"
		if m.Delivered {
			kind = "deliver"
		}
		r.Events = append(r.Events, Event{
			Round: round, Kind: kind, Pkt: uint64(m.Pkt.ID),
			Src: int(m.Pkt.Src), Dst: int(m.Pkt.Dst),
			From: int(m.From), To: int(m.To),
		})
	}
}

// OnRoundEnd implements metrics.Observer.
func (r *Recorder) OnRoundEnd(round int, v metrics.View) {
	row := make([]int, v.Net().Len())
	for i := range row {
		row[i] = v.Load(network.NodeID(i))
	}
	r.Loads = append(r.Loads, row)
}

// WriteJSON emits the recorded events and load matrix as a single JSON
// document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Events []Event `json:"events,omitempty"`
		Loads  [][]int `json:"loads"`
	}{Events: r.Events, Loads: r.Loads})
}

// heatRunes maps occupancy to a glyph; occupancies past the scale saturate.
var heatRunes = []rune(" .:-=+*#%@")

// RenderHeatmap draws the load matrix as ASCII: one row per sampled round
// (subsampled to at most maxRows), one column per buffer. Darker glyphs are
// fuller buffers; values ≥ len(scale) render as the last glyph.
func (r *Recorder) RenderHeatmap(w io.Writer, maxRows int) error {
	if len(r.Loads) == 0 {
		_, err := fmt.Fprintln(w, "(no rounds recorded)")
		return err
	}
	if maxRows <= 0 {
		maxRows = 40
	}
	step := 1
	if len(r.Loads) > maxRows {
		step = (len(r.Loads) + maxRows - 1) / maxRows
	}
	if _, err := fmt.Fprintf(w, "occupancy heatmap: %d rounds × %d buffers (scale \"%s\", step %d)\n",
		len(r.Loads), len(r.Loads[0]), string(heatRunes), step); err != nil {
		return err
	}
	for t := 0; t < len(r.Loads); t += step {
		var sb strings.Builder
		maxInRow := 0
		for _, load := range r.Loads[t] {
			idx := load
			if idx >= len(heatRunes) {
				idx = len(heatRunes) - 1
			}
			sb.WriteRune(heatRunes[idx])
			if load > maxInRow {
				maxInRow = load
			}
		}
		if _, err := fmt.Fprintf(w, "t=%6d |%s| max=%d\n", t, sb.String(), maxInRow); err != nil {
			return err
		}
	}
	return nil
}

// MaxLoadSeries returns the per-round maximum occupancy.
func (r *Recorder) MaxLoadSeries() []int {
	out := make([]int, len(r.Loads))
	for t, row := range r.Loads {
		m := 0
		for _, l := range row {
			if l > m {
				m = l
			}
		}
		out[t] = m
	}
	return out
}

// RenderSparkline draws a compact per-round max-load series.
func RenderSparkline(w io.Writer, series []int, width int) error {
	return RenderSeries(w, "max load per round", series, width)
}

// RenderSeries draws an arbitrary integer series as a unicode sparkline
// labeled "<label> (peak …): …"; wider series downsample by bucket
// maximum.
func RenderSeries(w io.Writer, label string, series []int, width int) error {
	if len(series) == 0 {
		_, err := fmt.Fprintln(w, "(empty series)")
		return err
	}
	if width <= 0 {
		width = 72
	}
	step := 1
	if len(series) > width {
		step = (len(series) + width - 1) / width
	}
	maxVal := 0
	for _, v := range series {
		if v > maxVal {
			maxVal = v
		}
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for i := 0; i < len(series); i += step {
		// Bucket max over the step window.
		v := 0
		for j := i; j < i+step && j < len(series); j++ {
			if series[j] > v {
				v = series[j]
			}
		}
		idx := 0
		if maxVal > 0 {
			idx = v * (len(ticks) - 1) / maxVal
		}
		sb.WriteRune(ticks[idx])
	}
	prefix := ""
	if label != "" {
		prefix = label + " "
	}
	_, err := fmt.Fprintf(w, "%s(peak %d): %s\n", prefix, maxVal, sb.String())
	return err
}
