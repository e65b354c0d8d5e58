// Package live is the observation tier: merge-as-you-go views of runs
// that are still in flight. An Accumulator folds each completed cell's
// record into a running metrics.Summary set the moment it is published,
// so GET /v1/runs/{id}/live can answer "what is happening right now"
// without waiting for the sweep's summary event. The service keeps each
// run's accumulator on the run itself, for the /live handler and the
// Prometheus exposition.
//
// # Strictly observational
//
// Nothing in this package feeds back into execution: accumulators are
// fed unconditionally from the publish path (the same work whether
// anyone is watching or not), snapshots copy under a mutex, and no
// state here reaches a wire record or digest. Attaching any number of
// watchers leaves the records digest byte-identical — the property the
// live-digest CI job gates.
//
// # Clock discipline
//
// Rates and ETAs need wall time, but aqtlint's nowallclock analyzer
// covers this package: all time flows through the injected Clock, so
// tests drive snapshot timestamps deterministically. SystemClock below
// carries the repository's one sanctioned wall-clock read.
package live

import (
	"context"
	"sync"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
)

// Clock abstracts the observation tier's only uses of wall time:
// stamping snapshots and pacing poll loops. Injecting it keeps live
// views and retry schedules testable and keeps time.Now out of
// digest-adjacent code. The service and the fleet coordinator take it
// as their Config.Clock.
type Clock interface {
	// Now returns the current time. Used only for elapsed-time and rate
	// fields, never for anything that reaches simulation results.
	Now() time.Time
	// Sleep blocks for d or until ctx is cancelled, returning ctx.Err()
	// in the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// SystemClock returns the real-time Clock used outside tests.
func SystemClock() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //aqtlint:allow nowallclock -- the one sanctioned wall-clock read; everything else injects Clock
}

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// View is the JSON snapshot of one in-flight (or finished) run. Counts
// and rates are integers — cells_per_sec_millis is cells/second ×1000
// and eta_millis is wall milliseconds — matching the stack's integer
// wire convention even though live views never enter a digest.
type View struct {
	ID            string `json:"id"`
	Status        string `json:"status"`
	CellsTotal    int    `json:"cells_total"`
	CellsDone     int    `json:"cells_done"`
	CellsFailed   int    `json:"cells_failed,omitempty"`
	CellsInFlight int    `json:"cells_in_flight"`
	// DroppedSummaries counts collector summaries the merge had to
	// discard (name/kind conflicts); normally 0.
	DroppedSummaries  int   `json:"dropped_summaries,omitempty"`
	ElapsedMillis     int64 `json:"elapsed_millis"`
	CellsPerSecMillis int64 `json:"cells_per_sec_millis"`
	ETAMillis         int64 `json:"eta_millis,omitempty"`
	// Metrics is the merge-as-you-go summary set over every cell
	// published so far, sorted by collector name. Merged under the same
	// rules as final reports (metrics.Merge), so the windowed collectors'
	// scalars read mid-sweep exactly like they will in the summary.
	Metrics []metrics.Summary `json:"metrics,omitempty"`
}

// Progress returns the run's completion in per-mille (0 when the total
// is unknown).
func (v View) Progress() int {
	if v.CellsTotal == 0 {
		return 0
	}
	return v.CellsDone * 1000 / v.CellsTotal
}

// MetricByName returns the view's merged summary for the named
// collector.
func (v View) MetricByName(name string) (metrics.Summary, bool) {
	for _, s := range v.Metrics {
		if s.Name == name {
			return s, true
		}
	}
	return metrics.Summary{}, false
}

// Accumulator folds published cell records into a live view of one run.
// All methods are safe for concurrent use; Observe is O(metrics) per
// cell and View copies the merged set, so a slow or stalled reader can
// never hold up the publisher.
//
// Summaries merge in completion order, not cell-index order, so
// anchored argmax *ties* may resolve differently than in the final
// report — live views are observational and make no ordering promise
// beyond what metrics.Merge gives any fold order.
type Accumulator struct {
	mu               sync.Mutex
	id               string
	total            int
	workers          int
	clock            Clock
	status           string
	started          time.Time
	finished         time.Time
	done             int
	failed           int
	droppedSummaries int
	merged           map[string]metrics.Summary
}

// NewAccumulator returns an accumulator for a run of total cells
// executed by at most workers concurrent sweep workers (0 means
// unknown). A nil clock falls back to SystemClock.
func NewAccumulator(id string, total, workers int, clock Clock) *Accumulator {
	if clock == nil {
		clock = SystemClock()
	}
	return &Accumulator{
		id: id, total: total, workers: workers, clock: clock,
		status: "queued", merged: map[string]metrics.Summary{},
	}
}

// Start marks the run as executing and stamps its start time.
func (a *Accumulator) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.status = "running"
	a.started = a.clock.Now()
}

// Observe folds one published cell record into the view.
func (a *Accumulator) Observe(rec harness.CellRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done++
	if rec.Err != "" {
		a.failed++
	}
	for _, s := range rec.Metrics {
		prev, ok := a.merged[s.Name]
		if !ok {
			a.merged[s.Name] = s
			continue
		}
		m, err := metrics.Merge(prev, s)
		if err != nil {
			a.droppedSummaries++
			continue
		}
		a.merged[s.Name] = m
	}
}

// Finish seals the view with the run's terminal status and stamps its
// end time, freezing the elapsed/rate fields.
func (a *Accumulator) Finish(status string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.status = status
	a.finished = a.clock.Now()
}

// View renders the current snapshot.
func (a *Accumulator) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := View{
		ID: a.id, Status: a.status,
		CellsTotal: a.total, CellsDone: a.done, CellsFailed: a.failed,
		DroppedSummaries: a.droppedSummaries,
		Metrics:          make([]metrics.Summary, 0, len(a.merged)),
	}
	for _, name := range metrics.SortedNames(a.merged) {
		v.Metrics = append(v.Metrics, a.merged[name])
	}
	running := a.status == "running"
	if running {
		if v.CellsInFlight = a.total - a.done; a.workers > 0 && v.CellsInFlight > a.workers {
			v.CellsInFlight = a.workers
		}
	}
	if a.started.IsZero() {
		return v
	}
	end := a.finished
	if end.IsZero() {
		end = a.clock.Now()
	}
	if elapsed := end.Sub(a.started).Milliseconds(); elapsed > 0 {
		v.ElapsedMillis = elapsed
		v.CellsPerSecMillis = int64(a.done) * 1_000_000 / elapsed
		if remaining := a.total - a.done; running && a.done > 0 && remaining > 0 {
			v.ETAMillis = int64(remaining) * elapsed / int64(a.done)
		}
	}
	return v
}
