// Package service is the network execution tier: an HTTP facade over the
// scenario layer that accepts declarative workloads (internal/scenario
// JSON), executes them on a bounded worker pool, and memoizes results in
// a digest-keyed, size-bounded LRU cache so identical workloads never
// re-simulate.
//
// # Endpoints
//
//	POST   /v1/runs              submit a scenario (JSON body); waits and
//	                             returns the full report, or ?wait=0 for 202
//	GET    /v1/runs              list known runs
//	GET    /v1/runs/{id}         report for one run (status + cells so far)
//	DELETE /v1/runs/{id}         cancel a run; streams then end with a
//	                             "cancelled" summary (idempotent)
//	GET    /v1/runs/{id}/stream  per-cell results as NDJSON (or SSE with
//	                             Accept: text/event-stream), each record
//	                             encoded once, then a summary
//	GET    /v1/runs/{id}/live    live snapshot: cells done/total, merged
//	                             metric summaries so far, cells/sec, ETA
//	GET    /v1/registry          the component catalog with param schemas
//	GET    /healthz              liveness
//	GET    /readyz               readiness: 503 with retryable JSON while
//	                             draining or the submit queue is full
//	GET    /metrics              Prometheus text exposition
//
// Error responses are structured JSON ({"error": ..., "retryable":
// true?}); transient rejections (submit-queue saturation, drain) carry
// retryable=true and a Retry-After header so a fleet coordinator can
// distinguish back-off from fail-over.
//
// # Execution model
//
// Submissions are keyed by Scenario.Digest(), the SHA-256 of the
// canonical scenario form. A digest that matches a completed run is
// served from the cache without simulating; a digest that matches an
// in-flight run joins it (single-flight). A body byte-identical to the
// one that created a run still known by its digest names that digest by
// its own SHA-256, so it is answered without parsing; any other spelling
// of the scenario is parsed and digested first. New digests are enqueued to a
// pool of Workers run-executors; each run executes its (possibly
// one-point) grid through harness.Sweep with SweepWorkers cell workers,
// so at most Workers × SweepWorkers cells are in flight at once. Every
// run gets its own context: when the last attached client disconnects
// before completion, the run is cancelled and its worker slot freed —
// abandoned work is never simulated to completion.
//
// Results are deterministic (integer metrics, seed-pinned traffic), so a
// cached report is byte-identical to a fresh one — the CI corpus gate
// compares the service's results digest against local aqtsim runs.
package service

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/live"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/store"
)

// Config sizes the service. The zero value is usable: every field has a
// production-lean default.
type Config struct {
	// Workers is the run-executor pool size: how many submitted scenarios
	// execute concurrently. Default 4.
	Workers int
	// SweepWorkers is the per-run cell pool handed to harness.Sweep, so
	// total concurrent cells ≤ Workers × SweepWorkers. Default 1 (the
	// strictest bound; raise it to let big sweeps use more cores).
	SweepWorkers int
	// CacheCells bounds the result cache: the total number of sweep cells
	// whose reports may be retained (one single run costs one cell).
	// Default 4096; ≤ -1 disables caching. (0 means the default.)
	CacheCells int
	// QueueDepth bounds the submit queue; submissions beyond it are
	// rejected with 503. Default 256.
	QueueDepth int
	// Clock supplies the wall time behind the live views' elapsed/rate
	// fields (never anything digest-adjacent). Tests inject a fake;
	// nil means live.SystemClock.
	Clock live.Clock
	// SSEHeartbeat is the idle interval after which an SSE stream emits
	// a ": keepalive" comment so proxy/LB idle timeouts don't sever
	// long-running sweeps. Default 15s; < 0 disables heartbeats.
	SSEHeartbeat time.Duration
	// CacheDir, when set, makes the result cache durable: completed runs
	// persist to an internal/store entry under this directory, and a
	// restarted daemon serves a previously finished digest from disk —
	// digest-verified on load, corrupt entries evicted rather than served
	// — as a warm cache hit. The in-memory LRU's cost bound still governs
	// what stays resident; disk holds everything persisted. Empty
	// disables persistence (the pre-restart behavior, byte-identical).
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = 1
	}
	if c.CacheCells == 0 {
		c.CacheCells = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Clock == nil {
		c.Clock = live.SystemClock()
	}
	if c.SSEHeartbeat == 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// Run statuses, as reported in the "status" field of reports and the
// stream's summary event.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"      // every cell executed (per-cell failures are data, see Report.Failed)
	StatusCancelled = "cancelled" // run context cancelled before completion
)

// Summary aggregates a finished run: grid counts, the results digest
// (see harness.RecordsDigest), the headline statistics over clean cells,
// and the merged metric summaries (per collector name, histograms merged
// bucket-wise with re-derived quantiles — see metrics.Fold), so a
// streaming client gets the grid-wide latency/occupancy distributions in
// the summary event without refolding the cell frames.
type Summary struct {
	Requested     int     `json:"requested"`
	Completed     int     `json:"completed"`
	Failed        int     `json:"failed"`
	ResultsDigest string  `json:"results_digest"`
	MaxLoadMean   float64 `json:"max_load_mean"`
	MaxLoadMax    int     `json:"max_load_max"`
	// DeliveredMeanMillis is the mean delivered count per clean cell in
	// per-mille — ⌊total delivered · 1000 / completed⌋ — matching the
	// integer wire convention the rest of the stack enforces. (Its float
	// predecessor, delivered_mean, served its one-release deprecation
	// window and is gone.)
	DeliveredMeanMillis int `json:"delivered_mean_millis"`
	// DroppedTotal counts packets lost in transit across clean cells;
	// omitted for loss-free runs so their summary bytes are unchanged.
	DroppedTotal int               `json:"dropped_total,omitempty"`
	Metrics      []metrics.Summary `json:"metrics,omitempty"`
}

// Report is the wire form of a run: identity, lifecycle state, and (when
// finished) the per-cell records and summary. ResultsDigest is duplicated
// at the top level so shell pipelines can extract it without descending
// into the summary. Cells holds each record's canonical encoding, in
// index order, as publish made it (harness.DecodeCanonical reads one).
type Report struct {
	ID            string            `json:"id"`
	Name          string            `json:"name,omitempty"`
	Digest        string            `json:"digest"`
	Status        string            `json:"status"`
	Cached        bool              `json:"cached"`
	Error         string            `json:"error,omitempty"`
	ResultsDigest string            `json:"results_digest,omitempty"`
	Summary       *Summary          `json:"summary,omitempty"`
	Cells         []json.RawMessage `json:"cells,omitempty"`
}

// run is one submitted scenario's lifecycle. Records publish in index
// order; subscribers follow appends via the changed-channel-swap idiom
// (grab the current channel under the lock, wait for it to close).
type run struct {
	id     string
	digest string
	body   [sha256.Size]byte // SHA-256 of the POST body that created the run
	name   string
	sweep  *harness.Sweep     // dropped at finish, with the scenario it holds
	span   harness.IndexRange // global index range of the run's cells

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	// lines holds each published record's canonical encoding, made once
	// in publish, in index order: the bytes of the run's cell frames,
	// reports, digest and disk seal alike. The records themselves are
	// folded into tally as they publish and are not kept.
	lines    []json.RawMessage
	tally    tally         // the executor's alone until finish
	changed  chan struct{} // closed and replaced on every state change
	finished bool
	runErr   error
	summary  *Summary
	watchers int
	pinned   bool // async submissions run to completion without watchers
	done     chan struct{}

	// live is the run's merge-as-you-go observation view. It is fed
	// unconditionally from publish — the same work whether anyone is
	// watching or not — so attaching live watchers can never perturb
	// execution order or the records digest.
	live *live.Accumulator
}

// attach registers an interested client; detach deregisters it. When the
// last watcher of an unpinned, unfinished run detaches, the run is
// cancelled: nobody is listening, so the worker slot is worth more than
// the result.
func (r *run) attach() {
	r.mu.Lock()
	r.watchers++
	r.mu.Unlock()
}

func (r *run) detach() {
	r.mu.Lock()
	r.watchers--
	abandon := r.watchers == 0 && !r.pinned && !r.finished
	r.mu.Unlock()
	if abandon {
		r.cancel()
	}
}

func (r *run) pin() {
	r.mu.Lock()
	r.pinned = true
	r.mu.Unlock()
}

// publish encodes one cell record, folds it into the tally, appends its
// line and wakes subscribers. Records publish in index order.
func (r *run) publish(rec harness.CellRecord) {
	line := harness.MarshalCanonical(rec)
	r.tally.add(rec, line)
	r.mu.Lock()
	r.lines = append(r.lines, line)
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// setStatus transitions the lifecycle state and wakes subscribers.
func (r *run) setStatus(status string) {
	r.mu.Lock()
	r.status = status
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// report snapshots the run in wire form, without its cells.
func (r *run) report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{ID: r.id, Name: r.name, Digest: r.digest, Status: r.status}
	if r.runErr != nil {
		rep.Error = r.runErr.Error()
	}
	if r.summary != nil {
		s := *r.summary
		rep.Summary = &s
		rep.ResultsDigest = s.ResultsDigest
	}
	return rep
}

// cells returns the lines of the cells published so far, in index order.
func (r *run) cells() []json.RawMessage {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lines
}

// Server is the scenario-execution service. Create it with New, mount it
// anywhere an http.Handler fits, and Drain/Close it on shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics promMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
	inRuns  sync.WaitGroup // one count per enqueued run, released at finish
	queue   chan *run

	mu       sync.Mutex
	closed   bool
	draining int // Drain calls in flight; > 0 refuses new submissions
	seq      int
	runs     map[string]*run // by id; entries live exactly as long as their cache entry
	byDigest map[string]*run // in-flight and cleanly-finished runs, by scenario digest
	// byBody holds each run by the SHA-256 of the body that created it,
	// until its cache entry is evicted: at most one entry per run.
	byBody map[[sha256.Size]byte]*run
	cache  *lru[*run] // finished runs; eviction drops the id, digest and body indexes
}

// New starts a service with cfg's pool and cache bounds. The returned
// Server is an http.Handler; callers own its lifecycle (Drain, Close).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		metrics:  promMetrics{start: time.Now()},
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *run, cfg.QueueDepth),
		runs:     make(map[string]*run),
		byDigest: make(map[string]*run),
		byBody:   make(map[[sha256.Size]byte]*run),
	}
	s.cache = newLRU[*run](cfg.CacheCells, func(digest string, r *run) {
		// Runs under s.mu (every cache mutation is). Drop the indexes so
		// evicted ids 404 and evicted digests re-simulate; the live view
		// goes with them.
		delete(s.runs, r.id)
		if s.byDigest[digest] == r {
			delete(s.byDigest, digest)
		}
		if s.byBody[r.body] == r {
			delete(s.byBody, r.body)
		}
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/runs/{id}/live", s.handleLive)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain waits until every accepted run has finished, or ctx expires.
// Call it after the HTTP listener stops accepting (graceful shutdown):
// in-flight work completes, nothing new arrives. While a Drain is in
// flight the server also refuses new submissions itself (503 with
// retryable=true) and reports unready on /readyz, so a coordinator
// holding an open connection backs off instead of queueing doomed work;
// once the drain returns the gate lifts, which matters only to callers
// using Drain as a quiesce barrier rather than for shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.draining--
		s.mu.Unlock()
	}()
	done := make(chan struct{})
	go func() {
		s.inRuns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every in-flight run, stops the worker pool, and finishes
// any still-queued runs as cancelled. Safe after Drain (nothing left to
// cancel) and as a hard stop without it.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.workers.Wait()
	for {
		select {
		case r := <-s.queue:
			s.finish(r, context.Canceled)
		default:
			return
		}
	}
}

// worker executes queued runs until shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case r := <-s.queue:
			s.execute(r)
		case <-s.baseCtx.Done():
			return
		}
	}
}

// execute runs one scenario through the harness, streaming cell records
// to subscribers as they complete.
func (s *Server) execute(r *run) {
	if r.ctx.Err() != nil { // abandoned or shut down while queued
		s.finish(r, r.ctx.Err())
		return
	}
	r.setStatus(StatusRunning)
	r.live.Start()
	// Cells finish in any order and publish in index order: held keeps,
	// by index, the cells that finished ahead of an earlier one. The
	// live accumulator (it has its own lock) sees each cell as it
	// finishes.
	var held []harness.CellRecord
	next := r.span.Lo
	for cr := range r.sweep.Stream(r.ctx) {
		rec := cr.Record()
		r.live.Observe(rec)
		s.metrics.cellsCompleted.Add(1)
		i, _ := slices.BinarySearchFunc(held, rec.Index, func(h harness.CellRecord, index int) int { return cmp.Compare(h.Index, index) })
		held = slices.Insert(held, i, rec)
		for ; len(held) > 0 && held[0].Index == next; next++ {
			r.publish(held[0])
			held = slices.Delete(held, 0, 1)
		}
	}
	// A cancelled run's cells past the first that never finished.
	for _, rec := range held {
		r.publish(rec)
	}
	s.finish(r, r.ctx.Err())
}

// finish seals a run: computes the summary and results digest, updates
// the cache and indexes, and wakes every waiter. Idempotent.
func (s *Server) finish(r *run, ctxErr error) {
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	sum := r.tally.summary(r.span.Count())
	r.summary, r.tally, r.sweep = sum, tally{}, nil
	lines := r.lines
	if ctxErr != nil {
		r.status = StatusCancelled
		r.runErr = fmt.Errorf("run cancelled after %d of %d cells: %w", len(lines), r.span.Count(), ctxErr)
	} else {
		r.status = StatusDone
	}
	close(r.changed)
	r.changed = make(chan struct{})
	status := r.status
	r.mu.Unlock()
	r.live.Finish(status)
	// Release the run's context so completed runs don't accumulate as
	// children of the server context (idempotent; status is already
	// sealed from the ctxErr snapshot above).
	r.cancel()

	s.mu.Lock()
	if ctxErr != nil {
		// Cancelled runs are partial: never serve them for their digest
		// again, and keep only the id entry until eviction.
		if s.byDigest[r.digest] == r {
			delete(s.byDigest, r.digest)
		}
		s.metrics.runsCancelled.Add(1)
	} else if sum.Failed > 0 {
		s.metrics.runsFailed.Add(1)
	} else {
		s.metrics.runsCompleted.Add(1)
	}
	// Complete runs — including ones with deterministic per-cell failures,
	// which re-running would reproduce — enter the cache at one cell of
	// cost per record. The eviction callback prunes the indexes.
	s.cache.add(r.digest, r, len(lines))
	s.mu.Unlock()
	// Waiters wake once the run is cached, so a client that reads its
	// result and posts again finds the cache with the run in it.
	close(r.done)

	if ctxErr == nil && s.cfg.CacheDir != "" && len(lines) > 0 {
		// Best effort: the run is already served and cached in memory, so
		// a persistence failure costs warmth after a restart, never
		// correctness. Published lines never change, so they are read
		// outside r.mu.
		_ = store.Seal(s.cfg.CacheDir, r.digest, r.span, lines, sum.ResultsDigest)
	}

	s.metrics.runsInFlight.Add(-1)
	s.inRuns.Done()
}

// loadFromDisk returns the lines of the durable cache's sealed entry
// for digest as stored, and their summary, or nil; store.OpenSealed
// decides what is servable and evicts what is corrupt.
func (s *Server) loadFromDisk(digest string, span harness.IndexRange) ([]json.RawMessage, *Summary) {
	// OpenSealed's error is a failed eviction: the entry is not served
	// either way, and the next Seal replaces it.
	st, _ := store.OpenSealed(s.cfg.CacheDir, digest, span)
	if st == nil {
		return nil, nil
	}
	defer st.Close()
	t := tally{digest: harness.NewRecordsDigester()}
	lines := make([]json.RawMessage, 0, span.Count())
	if st.ScanEncoded(func(line []byte) error {
		rec, err := harness.DecodeCanonical(line)
		if err != nil {
			return err
		}
		line = bytes.Clone(line)
		t.add(rec, line)
		lines = append(lines, line)
		return nil
	}) != nil {
		return nil, nil
	}
	return lines, t.summary(len(lines))
}

// tally folds a run's records, given in index order, into its Summary.
// The digest hashes each record's line as it was encoded.
type tally struct {
	sum               Summary
	loadSum, delivSum int
	fold              metrics.Fold
	digest            *harness.RecordsDigester
}

func (t *tally) add(rec harness.CellRecord, line []byte) {
	if err := t.digest.AddEncoded(rec.Index, rec.Faults != "", line); err != nil {
		// A run publishes distinct indices in increasing order.
		panic(err)
	}
	if rec.Err != "" {
		t.sum.Failed++
		return
	}
	t.sum.Completed++
	t.loadSum += rec.MaxLoad
	t.delivSum += rec.Delivered
	t.sum.DroppedTotal += rec.Dropped
	t.sum.MaxLoadMax = max(t.sum.MaxLoadMax, rec.MaxLoad)
	t.fold.Add(rec.Index, rec.Metrics...)
}

// summary returns the Summary of a run of requested cells whose records
// the tally folded.
func (t *tally) summary(requested int) *Summary {
	sum := t.sum
	sum.Requested = requested
	if sum.Completed > 0 {
		sum.MaxLoadMean = float64(t.loadSum) / float64(sum.Completed)
		sum.DeliveredMeanMillis = t.delivSum * 1000 / sum.Completed
	}
	// One collector per name per cell, so same-name summaries fold
	// cleanly; on the impossible mixed-kind error the aggregate is
	// dropped, never the summary.
	if t.fold.Err() == nil {
		sum.Metrics = metrics.Records(t.fold.Map())
	}
	sum.ResultsDigest = t.digest.Sum()
	return &sum
}

// handleSubmit accepts a scenario, dedupes it against the body and
// digest indexes, and (by default) waits for the result. ?wait=0
// detaches: the run is pinned to completion and a 202 with the run id is
// returned.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("scenario body: %w", err))
		return
	}
	sum := sha256.Sum256(body)
	wait := req.URL.Query().Get("wait") != "0"

	// Fastest path: a body that created a run still known by its digest
	// is answered without parsing it. A closed or draining daemon parses
	// every body first, so a malformed one still gets its 400.
	s.mu.Lock()
	if r, ok := s.byBody[sum]; ok && !s.closed && s.draining == 0 && s.serveExistingLocked(w, req, r.digest, wait) {
		return
	}
	s.mu.Unlock()

	sc, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	digest, err := sc.Digest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Fast path: the digest alone decides cache hits and in-flight
	// joins — no grid expansion for repeated workloads.
	s.mu.Lock()
	if s.rejectUnavailableLocked(w) {
		return
	}
	if s.serveExistingLocked(w, req, digest, wait) {
		return
	}
	s.mu.Unlock()

	// Miss: lift the scenario to its sweep outside the lock (Parse has
	// already validated the components, so failures here are rare).
	sw, err := sc.Sweep()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw.Workers = s.cfg.SweepWorkers
	span, err := cellSpan(sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Probe the durable cache outside the lock (it reads and verifies the
	// whole entry); the re-check below keeps single-flight intact.
	var warmed []json.RawMessage
	var warmedSum *Summary
	if s.cfg.CacheDir != "" {
		warmed, warmedSum = s.loadFromDisk(digest, span)
	}

	s.mu.Lock()
	if s.rejectUnavailableLocked(w) {
		return
	}
	// Re-check: an identical submission may have landed while the sweep
	// was being built; joining it preserves single-flight.
	if s.serveExistingLocked(w, req, digest, wait) {
		return
	}
	if warmed != nil {
		s.serveWarmedLocked(w, sum, sc.Name, digest, span, warmed, warmedSum)
		return
	}
	s.metrics.cacheMisses.Add(1)
	r := s.newRunLocked(s.baseCtx, sum, sc.Name, digest, span)
	r.sweep, r.watchers = sw, 1 // the submitter, detached by respondJoined
	s.metrics.runsStarted.Add(1)
	s.metrics.runsInFlight.Add(1)
	s.inRuns.Add(1)
	s.mu.Unlock()

	select {
	case s.queue <- r:
	default:
		// Reject, but through the normal lifecycle: finish seals the run
		// (waking any client that joined in the window above), drops its
		// digest reservation, and keeps every counter monotonic.
		r.cancel()
		s.finish(r, fmt.Errorf("queue full (%d runs waiting): %w", s.cfg.QueueDepth, context.Canceled))
		writeRetryable(w, http.StatusServiceUnavailable, retryAfterSeconds,
			fmt.Errorf("queue full (%d runs waiting)", s.cfg.QueueDepth))
		return
	}
	s.respondJoined(w, req, r, wait)
}

// cellSpan is the global index range of the cells a submission runs, and
// is billed for: its scenario's shard, or else the whole grid, never
// empty. Both come from the validated scenario, so the grid is expanded
// only once, when the run's sweep starts. Validate has already rejected
// duplicate axis labels, a grid past its cell bound and a shard reaching
// outside the grid, so the range is one the worker's expansion can run.
func cellSpan(sc *scenario.Scenario) (harness.IndexRange, error) {
	total, err := sc.GridSize()
	if err != nil {
		return harness.IndexRange{}, err
	}
	if sh := sc.Shard; sh != nil {
		return harness.IndexRange{Lo: sh.Offset, Hi: sh.Offset + sh.Count}, nil
	}
	return harness.IndexRange{Hi: total}, nil
}

// newRunLocked registers a queued run of span's cells for digest, created
// by the body whose SHA-256 is body, under a context of its own below
// parent. Must be called holding s.mu.
func (s *Server) newRunLocked(parent context.Context, body [sha256.Size]byte, name, digest string, span harness.IndexRange) *run {
	s.seq++
	ctx, cancel := context.WithCancel(parent)
	r := &run{
		id:      fmt.Sprintf("r%d-%s", s.seq, strings.TrimPrefix(digest, scenario.DigestPrefix)[:12]),
		digest:  digest,
		body:    body,
		name:    name,
		span:    span,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		tally:   tally{digest: harness.NewRecordsDigester()},
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.live = live.NewAccumulator(r.id, span.Count(), s.cfg.SweepWorkers, s.cfg.Clock)
	s.runs[r.id] = r
	s.byDigest[digest] = r
	s.byBody[body] = r
	return r
}

// serveWarmedLocked installs a digest-verified disk entry as a finished
// cached run — indexed, LRU-governed, and streamable exactly like a run
// this process executed — and serves it as a cache hit. Must be entered
// holding s.mu; always releases it.
func (s *Server) serveWarmedLocked(w http.ResponseWriter, body [sha256.Size]byte, name, digest string, span harness.IndexRange, lines []json.RawMessage, sum *Summary) {
	r := s.newRunLocked(context.Background(), body, name, digest, span)
	r.cancel() // sealed from birth: nothing to abandon
	r.status, r.finished, r.lines, r.summary = StatusDone, true, lines, sum
	close(r.done)
	r.live.Finish(StatusDone)
	s.cache.add(digest, r, len(lines))
	s.metrics.cacheHits.Add(1)
	s.metrics.runsCached.Add(1)
	s.mu.Unlock()
	rep := r.report()
	rep.Cached = true
	writeReport(w, http.StatusOK, rep, lines)
}

// serveExistingLocked serves the submission from an already-known digest
// — a completed cached run or an in-flight one to join. Must be entered
// holding s.mu; returns true when the request was handled (s.mu then
// released), false with s.mu still held.
func (s *Server) serveExistingLocked(w http.ResponseWriter, req *http.Request, digest string, wait bool) bool {
	existing, ok := s.byDigest[digest]
	if !ok {
		return false
	}
	existing.mu.Lock()
	finished := existing.finished
	if !finished {
		// Attach while both locks are held: the last current watcher
		// cannot slip out and cancel the run before we are counted.
		existing.watchers++
	}
	existing.mu.Unlock()
	if finished {
		s.metrics.cacheHits.Add(1)
		s.metrics.runsCached.Add(1)
		s.cache.get(digest) // refresh recency
		s.mu.Unlock()
		rep := existing.report()
		rep.Cached = true
		writeReport(w, http.StatusOK, rep, existing.cells())
		return true
	}
	s.metrics.runsJoined.Add(1)
	s.metrics.cacheHits.Add(1)
	s.mu.Unlock()
	s.respondJoined(w, req, existing, wait)
	return true
}

// respondJoined completes a submission whose watcher is already counted:
// either waiting for the run (the default) or pinning it and answering
// 202. The caller's attach is always balanced here.
func (s *Server) respondJoined(w http.ResponseWriter, req *http.Request, r *run, wait bool) {
	if !wait {
		r.pin()
		r.detach()
		writeJSON(w, http.StatusAccepted, r.report())
		return
	}
	defer r.detach()
	select {
	case <-r.done:
	case <-req.Context().Done():
		// Client gone; detach (possibly cancelling the run) and stop.
		return
	}
	rep := r.report()
	code := http.StatusOK
	if rep.Status == StatusCancelled {
		code = http.StatusInternalServerError
	}
	writeReport(w, code, rep, r.cells())
}

// lookup finds a run by id, refreshing its cache recency.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if ok {
		s.cache.get(r.digest)
	}
	return r, ok
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	writeReport(w, http.StatusOK, r.report(), r.cells())
}

// handleCancel cancels a run by id: its streams drain the cells already
// executed and then end with a "cancelled" summary, and its digest is
// released for clean re-submission. Idempotent — cancelling a finished
// run reports its sealed state. This is the fleet coordinator's
// work-stealing primitive: cancel the victim shard, keep the cells it
// streamed, re-dispatch the uncovered remainder elsewhere.
func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	r.mu.Lock()
	finished := r.finished
	r.mu.Unlock()
	if finished {
		writeJSON(w, http.StatusOK, r.report())
		return
	}
	r.cancel()
	writeJSON(w, http.StatusAccepted, r.report())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	reps := make([]Report, 0, len(s.runs))
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		reps = append(reps, r.report())
	}
	// Stable order for clients: by id. Ids are "r<seq>-…", so shorter ids
	// sort first and equal lengths sort lexically — creation order.
	sort.Slice(reps, func(i, j int) bool {
		if len(reps[i].ID) != len(reps[j].ID) {
			return len(reps[i].ID) < len(reps[j].ID)
		}
		return reps[i].ID < reps[j].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"runs": reps})
}

// CellFramePrefix opens every cell frame of a run stream: the frame is
// the record's canonical encoding with its opening brace replaced by
// this prefix, which gives json.Marshal of the record with a "type"
// field in front byte for byte.
const CellFramePrefix = `{"type":"cell",`

// CutCellFrame returns the record's canonical encoding inside a cell
// frame, cut in place: the byte before the record's first field becomes
// its opening brace, so frame is modified. ok is false, and frame left
// alone, when the frame does not start with CellFramePrefix.
func CutCellFrame(frame []byte) (line []byte, ok bool) {
	if !bytes.HasPrefix(frame, []byte(CellFramePrefix)) {
		return nil, false
	}
	line = frame[len(CellFramePrefix)-1:]
	line[0] = '{'
	return line, true
}

// handleStream follows a run: already-published cells replay first, the
// rest follow as they publish, in index order, and a summary event
// closes the stream.
// Content is NDJSON by default, SSE when the client asks for
// text/event-stream. A cell frame is the record's canonical encoding
// with CellFramePrefix spliced in front: the bytes publish made, which
// the run's digest hashes too. Disconnecting mid-stream detaches the
// client, which cancels the run if nobody else is watching.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	r.attach()
	defer r.detach()

	// Idle SSE connections emit comment heartbeats so proxy/LB idle
	// timeouts don't sever a long-running sweep's stream. A nil channel
	// (NDJSON, or heartbeats disabled) never fires.
	var heartbeat <-chan time.Time
	if sse && s.cfg.SSEHeartbeat > 0 {
		ticker := time.NewTicker(s.cfg.SSEHeartbeat)
		defer ticker.Stop()
		heartbeat = ticker.C
	}

	// emit writes one frame in one Write: the event's JSON is prefix
	// followed by data.
	var frame []byte
	emit := func(event, prefix string, data []byte) bool {
		frame = frame[:0]
		if sse {
			frame = append(append(append(frame, "event: "...), event...), "\ndata: "...)
		}
		frame = append(append(frame, prefix...), data...)
		if sse {
			frame = append(frame, "\n\n"...)
		} else {
			frame = append(frame, '\n')
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	next := 0
	for {
		// Published lines never change, so the pending ones are read
		// outside r.mu.
		r.mu.Lock()
		pending := r.lines[next:]
		changed := r.changed
		finished := r.finished
		r.mu.Unlock()
		next += len(pending)
		for _, line := range pending {
			if !emit("cell", CellFramePrefix, line[1:]) {
				return
			}
		}
		if finished {
			data, err := json.Marshal(struct {
				Type string `json:"type"`
				Report
			}{Type: "summary", Report: r.report()})
			if err == nil {
				emit("summary", "", data)
			}
			return
		}
		select {
		case <-changed:
		case <-heartbeat:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-req.Context().Done():
			return
		}
	}
}

// handleLive answers with the run's live snapshot: cells done/total,
// the merge-as-you-go metric summaries, cells/sec, and ETA. Reading it
// never attaches a watcher and never touches the run's own lock — a
// polling dashboard cannot keep an abandoned run alive or slow the
// publish path.
func (s *Server) handleLive(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, r.live.View())
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, registry.Catalog())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"in_flight":      s.metrics.runsInFlight.Load(),
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: a live
// daemon that is draining, closed, or has a saturated submit queue
// answers 503 with a retryable body here, telling a coordinator to back
// off or route new shards elsewhere while the process itself stays up.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed, draining := s.closed, s.draining > 0
	s.mu.Unlock()
	switch {
	case closed:
		writeError(w, http.StatusServiceUnavailable, errors.New("not ready: service shutting down"))
	case draining:
		writeRetryable(w, http.StatusServiceUnavailable, retryAfterSeconds, errors.New("not ready: draining"))
	case len(s.queue) >= s.cfg.QueueDepth:
		writeRetryable(w, http.StatusServiceUnavailable, retryAfterSeconds, errors.New("not ready: submit queue full"))
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ready",
			"queue_depth":    len(s.queue),
			"queue_capacity": s.cfg.QueueDepth,
		})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := snapshot{
		cacheEntries:  s.cache.len(),
		cacheCost:     s.cache.totalCost(),
		cacheCapacity: s.cfg.CacheCells,
		queueDepth:    len(s.queue),
		workers:       s.cfg.Workers,
	}
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	// Per-run gauges cover in-flight runs only: finished runs linger in
	// the cache indefinitely, and unbounded label cardinality is how a
	// scrape endpoint dies.
	for _, r := range runs {
		if v := r.live.View(); v.Status == StatusQueued || v.Status == StatusRunning {
			snap.live = append(snap.live, v)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, snap)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeReport writes rep with lines, its records' canonical encodings,
// as its cells.
func writeReport(w http.ResponseWriter, code int, rep Report, lines []json.RawMessage) {
	rep.Cells = lines
	writeJSON(w, code, rep)
}

// apiError is the wire form of every error response. Retryable marks
// transient conditions — submit-queue saturation, drain — where the
// right client move is back-off-and-retry rather than fail-over; it is
// absent (not false) on permanent errors so their bytes are unchanged
// from the pre-fleet schema.
type apiError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

// retryAfterSeconds is the Retry-After hint on transient rejections:
// long enough for a queue slot or drain step to make progress, short
// enough that a backing-off coordinator stays responsive.
const retryAfterSeconds = 1

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// writeRetryable reports a transient rejection: structured JSON with
// retryable=true plus a Retry-After header hint in seconds.
func writeRetryable(w http.ResponseWriter, code, retryAfter int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, apiError{Error: err.Error(), Retryable: true})
}

// rejectUnavailableLocked answers submissions the lifecycle can no
// longer accept: a hard close is permanent, a drain is retryable. Must
// be entered holding s.mu; returns true with s.mu released when the
// request was rejected, false with s.mu still held.
func (s *Server) rejectUnavailableLocked(w http.ResponseWriter) bool {
	switch {
	case s.closed:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("service shutting down"))
		return true
	case s.draining > 0:
		s.mu.Unlock()
		writeRetryable(w, http.StatusServiceUnavailable, retryAfterSeconds,
			errors.New("service draining: not accepting new runs"))
		return true
	}
	return false
}
