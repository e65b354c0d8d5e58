package service

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"smallbuffers/internal/live"
	"smallbuffers/internal/metrics"
)

// promMetrics is the service's instrumentation: lock-free counters for
// the run lifecycle and the cache, rendered in Prometheus text exposition
// format by write. Gauges that depend on mutex-guarded state (cache size,
// queue depth) are sampled by the server at scrape time and passed in.
// (Simulation measurement is a different thing entirely — see
// internal/metrics.)
type promMetrics struct {
	start time.Time

	runsStarted   atomic.Int64 // runs accepted and enqueued (cache misses)
	runsCompleted atomic.Int64 // runs that finished with every cell clean
	runsFailed    atomic.Int64 // runs that finished with failed cells or a run-level error
	runsCancelled atomic.Int64 // runs cancelled (client gone, shutdown)
	runsCached    atomic.Int64 // requests served entirely from the digest cache
	runsJoined    atomic.Int64 // requests coalesced onto an in-flight identical run
	runsInFlight  atomic.Int64 // queued or executing right now

	cellsCompleted atomic.Int64 // cells executed across all runs (cache hits excluded)

	cacheHits   atomic.Int64 // digest lookups that found a completed or in-flight run
	cacheMisses atomic.Int64 // digest lookups that found nothing
}

// snapshot carries the mutex-guarded gauges the server samples at scrape
// time, plus the live views of in-flight runs for the per-run gauges.
type snapshot struct {
	cacheEntries  int
	cacheCost     int
	cacheCapacity int
	queueDepth    int
	workers       int
	live          []live.View
}

// write renders the metrics in Prometheus text exposition format.
func (m *promMetrics) write(w io.Writer, s snapshot) {
	uptime := time.Since(m.start).Seconds()
	cells := m.cellsCompleted.Load()
	cellsPerSec := 0.0
	if uptime > 0 {
		cellsPerSec = float64(cells) / uptime
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("aqtserve_runs_started_total", "Runs accepted and executed (cache misses).", m.runsStarted.Load())
	counter("aqtserve_runs_completed_total", "Runs that finished with every cell clean.", m.runsCompleted.Load())
	counter("aqtserve_runs_failed_total", "Runs that finished with failed cells or a run-level error.", m.runsFailed.Load())
	counter("aqtserve_runs_cancelled_total", "Runs cancelled before completion (client gone, shutdown).", m.runsCancelled.Load())
	counter("aqtserve_runs_cached_total", "Requests served entirely from the digest-keyed result cache.", m.runsCached.Load())
	counter("aqtserve_runs_joined_total", "Requests coalesced onto an identical in-flight run.", m.runsJoined.Load())
	gauge("aqtserve_runs_in_flight", "Runs queued or executing right now.", float64(m.runsInFlight.Load()))
	counter("aqtserve_cells_completed_total", "Sweep cells executed across all runs.", cells)
	gauge("aqtserve_cells_per_second", "Lifetime average cell execution rate.", cellsPerSec)
	counter("aqtserve_cache_hits_total", "Digest lookups that found a completed or in-flight run.", hits)
	counter("aqtserve_cache_misses_total", "Digest lookups that found nothing cached.", misses)
	gauge("aqtserve_cache_hit_ratio", "Fraction of digest lookups served from cache.", hitRatio)
	gauge("aqtserve_cache_entries", "Completed runs held in the result cache.", float64(s.cacheEntries))
	gauge("aqtserve_cache_cost_cells", "Total cost (in cells) of cached results.", float64(s.cacheCost))
	gauge("aqtserve_cache_capacity_cells", "Configured cache capacity (in cells).", float64(s.cacheCapacity))
	gauge("aqtserve_queue_depth", "Runs waiting for a worker.", float64(s.queueDepth))
	gauge("aqtserve_workers", "Configured worker pool size.", float64(s.workers))
	gauge("aqtserve_uptime_seconds", "Seconds since the service started.", uptime)
	writeRunGauges(w, s.live)
}

// writeRunGauges renders the per-run gauges for in-flight runs: sweep
// progress plus — when the run selected the windowed collectors — the
// recent occupancy p99 and drop rate from the merge-as-you-go view.
// It sorts views by run id, so the exposition is stable scrape to
// scrape whatever order the server collected them in.
func writeRunGauges(w io.Writer, views []live.View) {
	if len(views) == 0 {
		return
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	header := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	perRun := func(name, help string, value func(live.View) (int, bool)) {
		wrote := false
		for _, v := range views {
			val, ok := value(v)
			if !ok {
				continue
			}
			if !wrote {
				header(name, help)
				wrote = true
			}
			fmt.Fprintf(w, "%s{run=%q} %d\n", name, v.ID, val)
		}
	}
	always := func(get func(live.View) int) func(live.View) (int, bool) {
		return func(v live.View) (int, bool) { return get(v), true }
	}
	scalar := func(metric, key string) func(live.View) (int, bool) {
		return func(v live.View) (int, bool) {
			s, ok := v.MetricByName(metric)
			if !ok {
				return 0, false
			}
			val, ok := s.Scalars[key]
			return val, ok
		}
	}
	perRun("aqtserve_run_cells_in_flight", "Cells executing right now for this run.",
		always(func(v live.View) int { return v.CellsInFlight }))
	perRun("aqtserve_run_cells_done", "Cells completed so far for this run.",
		always(func(v live.View) int { return v.CellsDone }))
	perRun("aqtserve_run_cells_total", "Cells requested by this run.",
		always(func(v live.View) int { return v.CellsTotal }))
	perRun("aqtserve_run_window_occupancy_p99", "Recent-window occupancy p99 (window_load collector).",
		scalar(metrics.NameWindowLoad, "window_p99"))
	perRun("aqtserve_run_drop_rate_permille", "Packets dropped per mille of forwards so far (drop_rate collector).",
		scalar(metrics.NameDropRate, "drop_permille"))
	perRun("aqtserve_run_drop_window_permille", "Recent-window drop rate in per mille (goodput_window collector).",
		scalar(metrics.NameGoodputWindow, "drop_window_permille"))
}
