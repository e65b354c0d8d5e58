package metrics

import "sort"

// Registry names of the windowed collectors (the live-observability
// family: exact recent-history windows that stay meaningful while a run
// is still in flight).
const (
	NameWindowLoad    = "window_load"
	NameGoodputWindow = "goodput_window"
)

// window is a fixed-capacity ring over the last N per-round values with
// an O(1) running sum. It is the exact-window counterpart of
// BoundedSeries: no downsampling, no stride — the most recent N rounds
// at full resolution, everything older is the caller's problem (the
// window_load collector folds evictions into a decayed tail).
type window struct {
	buf []int
	at  int // next write position
	n   int // values in the ring (≤ len(buf))
	sum int
}

func newWindow(n int) *window {
	if n < 1 {
		n = 1
	}
	return &window{buf: make([]int, n)}
}

// push appends v; when the ring is full the oldest value is evicted and
// returned with evicted=true.
func (w *window) push(v int) (old int, evicted bool) {
	if w.n == len(w.buf) {
		old, evicted = w.buf[w.at], true
		w.sum -= old
	} else {
		w.n++
	}
	w.buf[w.at] = v
	w.at = (w.at + 1) % len(w.buf)
	w.sum += v
	return old, evicted
}

// values returns the window contents oldest-first (a fresh slice).
func (w *window) values() []int {
	out := make([]int, w.n)
	start := (w.at - w.n + len(w.buf)) % len(w.buf)
	for i := 0; i < w.n; i++ {
		out[i] = w.buf[(start+i)%len(w.buf)]
	}
	return out
}

// max returns the maximum value in the window (0 when empty).
func (w *window) max() int {
	m := 0
	for i := 0; i < w.n; i++ {
		if v := w.buf[i]; v > m {
			m = v
		}
	}
	return m
}

// meanMillis returns the window mean scaled by 1000 (0 when empty).
func (w *window) meanMillis() int { return permille(w.sum, w.n) }

// quantile returns the p-th percentile of the window under the same
// integer nearest-rank rule as HistRecord.Quantile: rank ⌊(p·n+50)/100⌋
// into the sorted window, clamped to [1, n]. 0 when the window is empty.
func (w *window) quantile(p int) int {
	if w.n == 0 {
		return 0
	}
	vals := w.values()
	sort.Ints(vals)
	rank := (p*w.n + 50) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > w.n {
		rank = w.n
	}
	return vals[rank-1]
}

// WindowLoadCollector measures *recent* occupancy: the exact per-round
// maximum over the last `window` rounds (max, mean, p99 — all integer,
// mean in per-mille) plus an exponentially-decayed maximum of every
// round that has aged out of the window. Where load_series answers
// "what happened over the whole run", window_load answers "what is
// happening right now" — the time-resolved lens the live views and the
// buffer-sizing literature want — while the decayed tail keeps old
// excursions visible without unbounded memory.
type WindowLoadCollector struct {
	NopObserver
	win           *window
	decayPermille int
	roundMax      int
	rounds        int
	decayedMillis int // fixed-point (×1000) decayed max of evicted rounds
}

// NewWindowLoad returns a window_load collector over the last
// windowRounds rounds, with the beyond-window decayed tail retaining
// decayPermille/1000 of its value per subsequent round.
func NewWindowLoad(windowRounds, decayPermille int) *WindowLoadCollector {
	if decayPermille < 0 {
		decayPermille = 0
	}
	if decayPermille > 1000 {
		decayPermille = 1000
	}
	return &WindowLoadCollector{win: newWindow(windowRounds), decayPermille: decayPermille}
}

// Name implements Collector.
func (c *WindowLoadCollector) Name() string { return NameWindowLoad }

// OnSample implements Collector: track the round's maximum node
// occupancy over both sample points, like load_series.
func (c *WindowLoadCollector) OnSample(_ int, _ Point, v View) {
	for _, u := range v.Occupied() {
		c.roundMax = max(c.roundMax, v.Load(u))
	}
}

// OnRoundEnd implements Collector: the round's maximum enters the
// window; whatever it evicts decays into the tail. The decayed tail is
// a running maximum in ×1000 fixed point — each eviction first decays
// the tail by decayPermille (one round has passed since the previous
// eviction) and then folds the evicted value in at full scale.
func (c *WindowLoadCollector) OnRoundEnd(int, View) {
	c.rounds++
	if old, evicted := c.win.push(c.roundMax); evicted {
		c.decayedMillis = max(c.decayedMillis*c.decayPermille/1000, old*1000)
	}
	c.roundMax = 0
}

// Summarize implements Collector. All scalars are exact integers over
// the current window, so a mid-run summary is meaningful: window_max,
// window_mean_millis, and window_p99 describe the last window_rounds
// rounds only, and decayed_max_millis is the ×1000 decayed maximum of
// everything older. The series record carries the window itself as an
// exact tail for sparkline rendering.
func (c *WindowLoadCollector) Summarize() Summary {
	return Summary{Name: NameWindowLoad, Kind: KindSeries,
		Scalars: map[string]int{
			"rounds":             c.rounds,
			"window":             len(c.win.buf),
			"window_rounds":      c.win.n,
			"window_max":         c.win.max(),
			"window_mean_millis": c.win.meanMillis(),
			"window_p99":         c.win.quantile(99),
			"decayed_max_millis": c.decayedMillis,
		},
		Series: []SeriesRecord{{Key: "window_max", Agg: AggMax, Stride: 1,
			Rounds: c.rounds, Tail: c.win.values()}}}
}

// GoodputWindowCollector is the windowed companion of the goodput
// collector: exact injected/delivered/dropped counts over the last
// `window` rounds, riding the same delivery ledger (OnInject/OnForward).
// goodput_window_permille is the *recent* throughput efficiency — during
// an in-flight lossy sweep it shows the current loss regime where the
// whole-run goodput_permille only shows the average so far.
type GoodputWindowCollector struct {
	NopObserver
	injWin         *window
	delWin         *window
	dropWin        *window
	roundInjected  int
	roundDelivered int
	roundDropped   int
	injected       int
	delivered      int
	dropped        int
	rounds         int
}

// NewGoodputWindow returns a goodput_window collector over the last
// windowRounds rounds.
func NewGoodputWindow(windowRounds int) *GoodputWindowCollector {
	return &GoodputWindowCollector{
		injWin:  newWindow(windowRounds),
		delWin:  newWindow(windowRounds),
		dropWin: newWindow(windowRounds),
	}
}

// Name implements Collector.
func (c *GoodputWindowCollector) Name() string { return NameGoodputWindow }

// OnInject implements Collector.
func (c *GoodputWindowCollector) OnInject(_ int, injs []Injection) {
	c.roundInjected += len(injs)
	c.injected += len(injs)
}

// OnForward implements Collector.
func (c *GoodputWindowCollector) OnForward(_ int, moves []Move) {
	for _, m := range moves {
		switch {
		case m.Delivered:
			c.roundDelivered++
			c.delivered++
		case m.Dropped:
			c.roundDropped++
			c.dropped++
		}
	}
}

// OnRoundEnd implements Collector.
func (c *GoodputWindowCollector) OnRoundEnd(int, View) {
	c.rounds++
	c.injWin.push(c.roundInjected)
	c.delWin.push(c.roundDelivered)
	c.dropWin.push(c.roundDropped)
	c.roundInjected, c.roundDelivered, c.roundDropped = 0, 0, 0
}

// Summarize implements Collector. The window_* scalars cover the last
// window_rounds rounds exactly; goodput_window_permille and
// drop_window_permille are integer ratios against the windowed
// injection count. The series records carry both windows as exact tails.
func (c *GoodputWindowCollector) Summarize() Summary {
	winInj, winDel, winDrop := c.injWin.sum, c.delWin.sum, c.dropWin.sum
	return Summary{Name: NameGoodputWindow, Kind: KindSeries,
		Scalars: map[string]int{
			"rounds":                  c.rounds,
			"window":                  len(c.injWin.buf),
			"window_rounds":           c.injWin.n,
			"injected":                c.injected,
			"delivered":               c.delivered,
			"dropped":                 c.dropped,
			"window_injected":         winInj,
			"window_delivered":        winDel,
			"window_dropped":          winDrop,
			"goodput_window_permille": permille(winDel, winInj),
			"drop_window_permille":    permille(winDrop, winInj),
		},
		Series: []SeriesRecord{
			{Key: "window_injected", Agg: AggSum, Stride: 1, Rounds: c.rounds, Tail: c.injWin.values()},
			{Key: "window_delivered", Agg: AggSum, Stride: 1, Rounds: c.rounds, Tail: c.delWin.values()},
		}}
}
