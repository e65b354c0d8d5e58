// Package fleet is the distribution tier: a coordinator that splits one
// scenario's sweep grid into deterministic index-range shards, dispatches
// them to a fleet of aqtserve daemons, and merges the streamed per-cell
// records back into the exact record set — and RecordsDigest — of a
// local single-process run.
//
// # Correctness model
//
// Cell indices are a global property of the grid (see harness.Cell), so
// shards are just index ranges and the merge is mechanical: collect every
// cell exactly once, sort by index, digest. The coordinator enforces
// "exactly once" structurally — every record is committed on arrival to
// a merge (the caller's store, or an in-memory grid) that refuses an
// index it already holds, and whenever a shard ends early (its daemon
// died, a thief stole it, the daemon cancelled it) only its uncovered
// remainder is re-enqueued — so the merged digest either equals the
// local digest or the run errors. There is no "close enough".
//
// # Determinism discipline
//
// Simulation results never depend on the fleet: scheduling, retries,
// steals, and daemon failures change only where cells execute. Wall-clock
// time is confined to the injected Config.Clock, a live.Clock (aqtlint's
// nowallclock analyzer covers this package), so tests drive backoff
// deterministically.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/live"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// The coordinator's fixed tuning.
const (
	// shardsPerDaemon sets the initial partition: the grid splits into
	// len(Endpoints) × shardsPerDaemon index-range shards (clamped to the
	// cell count). More shards per daemon smooth skewed grids at the cost
	// of more submissions.
	shardsPerDaemon = 2
	// maxAttempts bounds how many times one shard may be dispatched after
	// losing work (its daemon died mid-stream); reaching it fails the
	// fleet run. Transient submit rejections (saturation, drain) consume
	// no attempt: no work was lost.
	maxAttempts = 4
	// failureLimit quarantines a daemon after this many consecutive
	// failures, for the rest of the run. When every daemon is quarantined
	// the run fails.
	failureLimit = 3
	// backoffBase and backoffMax shape the capped exponential backoff a
	// daemon serves after consecutive failures: min(backoffMax,
	// backoffBase·2^(failures−1)).
	backoffBase = 100 * time.Millisecond
	backoffMax  = 2 * time.Second
	// minStealCells is the smallest piece work stealing creates: a victim
	// is only split while its uncovered remainder is at least twice this.
	minStealCells = 4
)

// Config sizes the coordinator. Endpoints is required; every other field
// has a production-lean default.
type Config struct {
	// Endpoints lists the aqtserve daemons ("host:port" or full URLs),
	// each at most once: "a:1" and "http://a:1/" are the same daemon.
	Endpoints []string
	// InFlightPerDaemon caps concurrent shard streams per daemon.
	// Default 2.
	InFlightPerDaemon int
	// Store, when set, is the durable merge sink: every received record
	// streams to disk as it arrives, as the bytes its daemon encoded it
	// to, instead of accumulating in coordinator memory (the merge holds
	// O(1) cells at any grid size — see Summary.MaxBufferedCells), cells
	// the store already covers are not dispatched at all
	// (checkpoint/resume — a killed run picks up where its store left
	// off), and the final digest is re-derived from the stored bytes in
	// index order, without decoding them. The entry must be keyed by this
	// scenario's digest and span its whole grid; the caller opens and
	// closes it. Result.Records is nil in store mode. The merged digest is
	// byte-identical with and without a store — persistence changes where
	// records live, never what they contain.
	Store *store.Store
	// Clock injects time for backoff, live-watch pacing and the summary's
	// elapsed fields. Defaults to live.SystemClock(). Simulation results
	// never depend on it.
	Clock live.Clock
	// Logf, when set, receives human-oriented progress lines (dispatches,
	// failures, steals).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.InFlightPerDaemon <= 0 {
		c.InFlightPerDaemon = 2
	}
	if c.Clock == nil {
		c.Clock = live.SystemClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// DaemonStats is one daemon's share of a fleet run.
type DaemonStats struct {
	Endpoint    string        `json:"endpoint"`
	Dispatches  int           `json:"dispatches"`
	Cells       int           `json:"cells"`
	Failures    int           `json:"failures"`
	StolenFrom  int           `json:"stolen_from"`
	Quarantined bool          `json:"quarantined,omitempty"`
	Busy        time.Duration `json:"busy_ns"`
}

// Summary describes how a fleet run went: the merged result counters,
// the grid-wide metric summaries (folded by metrics.Fold as records
// commit, exactly as a local run folds them), and the distribution
// story — cells per daemon, retries, steals, and wall-clock against the
// perfect-balance ideal.
type Summary struct {
	Requested     int               `json:"requested"`
	Completed     int               `json:"completed"`
	Failed        int               `json:"failed"`
	ResultsDigest string            `json:"results_digest"`
	Metrics       []metrics.Summary `json:"metrics,omitempty"`
	Daemons       []DaemonStats     `json:"daemons"`
	Retries       int               `json:"retries"`
	Steals        int               `json:"steals"`
	// Resumed counts cells that were already durable in the store when
	// the run started; they were served from disk, never dispatched.
	Resumed int `json:"resumed,omitempty"`
	// MaxBufferedCells is the high-water mark of merged cell records
	// held in coordinator memory: the grid size without a store (every
	// record is buffered until the run completes), 0 with one (records
	// go to disk as they arrive).
	MaxBufferedCells int           `json:"max_buffered_cells"`
	Wall             time.Duration `json:"wall_ns"`
	// Ideal is the wall-clock a perfectly balanced fleet would need:
	// total busy time divided by daemon count. Wall/Ideal ≥ 1 measures
	// coordination overhead plus imbalance.
	Ideal time.Duration `json:"ideal_ns"`
}

// Result is a completed fleet run: every cell record of the grid in
// global index order, the digest over them, and the fleet summary.
// Records is nil when the run merged into a store (Config.Store) — the
// records are on disk, streamable via Store.Scan, and deliberately not
// loaded back: bounded coordinator memory is the point of store mode.
type Result struct {
	Records []harness.CellRecord
	Summary Summary
}

// shardItem is one unit of pending work: an index range plus how many
// times it has been dispatched and lost.
type shardItem struct {
	rng      harness.IndexRange
	attempts int
}

// task is one in-flight dispatch of a shard on a daemon. Its records
// are committed to the merge as they arrive; only their count is kept.
type task struct {
	item     shardItem
	daemon   *daemonState
	runID    string
	stolen   bool // a thief has requested cancellation
	appended int  // records this task committed to the merge
}

// remaining estimates the victim's uncovered cells — what a steal would
// reclaim. Caller holds co.mu.
func (t *task) remaining() int { return t.item.rng.Count() - t.appended }

type daemonState struct {
	endpoint    string
	client      *client
	consecFails int
	quarantined bool
	stats       DaemonStats
}

// merge is where the coordinator commits records as they arrive: the
// caller's store, or an in-memory grid without one (see commit). Each
// refuses an index outside the grid or one already merged — the
// structural guarantee that nothing is ever double-merged.
type merge interface {
	Count() int
	UncoveredIn(harness.IndexRange) []harness.IndexRange
	Digest() (string, error)
}

type coordinator struct {
	cfg    Config
	parent *scenario.Scenario
	total  int
	merged merge

	mu      sync.Mutex
	cond    *sync.Cond
	pending []shardItem
	running map[*task]struct{}
	healthy int
	fatal   error
	done    bool
	retries int
	steals  int
	// The merged records' counters and metric fold, kept as records
	// commit.
	completed, failed int
	fold              metrics.Fold
}

// tally counts one merged record and folds its metrics. Caller holds
// co.mu, or owns co alone.
func (co *coordinator) tally(rec harness.CellRecord) {
	if rec.Err != "" {
		co.failed++
		return
	}
	co.completed++
	co.fold.Add(rec.Index, rec.Metrics...)
}

// Run executes sc's whole sweep grid across the fleet and returns the
// merged records. The returned records are complete (every grid cell,
// exactly once, in index order) or the error is non-nil — a fleet run
// never returns a partial result.
func Run(ctx context.Context, cfg Config, sc *scenario.Scenario) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := checkEndpoints(cfg.Endpoints); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Shard != nil {
		return nil, errors.New("fleet: scenario is already sharded; dispatch the unsharded parent")
	}
	total, err := sc.GridSize()
	if err != nil {
		return nil, err
	}

	var merged merge
	if st := cfg.Store; st != nil {
		dig, err := sc.Digest()
		if err != nil {
			return nil, err
		}
		if got := st.Scenario(); got != dig {
			return nil, fmt.Errorf("fleet: store entry holds scenario %s, not %s", got, dig)
		}
		if sp := st.Span(); sp.Lo != 0 || sp.Hi != total {
			return nil, fmt.Errorf("fleet: store entry spans %v, scenario grid is [0,%d)", sp, total)
		}
		merged = st
	} else {
		merged = newGrid(total)
	}
	co := &coordinator{
		cfg:     cfg,
		parent:  sc,
		total:   total,
		merged:  merged,
		running: map[*task]struct{}{},
		healthy: len(cfg.Endpoints),
	}
	co.cond = sync.NewCond(&co.mu)

	// Size-aware partitioning: shards balance total topology node count,
	// not cell count, so a few big-topology cells weigh as much as many
	// small ones. Only the uncovered remainder is partitioned at all —
	// cells a store already covers are durable.
	weights, err := sc.CellWeights()
	if err != nil {
		return nil, err
	}
	resumed := merged.Count()
	if resumed > 0 {
		// The one read of the records already durable; the rest are
		// tallied as they commit.
		if err := cfg.Store.Scan(func(rec harness.CellRecord) error {
			co.tally(rec)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("fleet: store scan: %w", err)
		}
	}
	owed := merged.UncoveredIn(harness.IndexRange{Lo: 0, Hi: total})
	for _, rng := range harness.PartitionRangesWeighted(owed, weights, len(cfg.Endpoints)*shardsPerDaemon) {
		co.pending = append(co.pending, shardItem{rng: rng})
	}
	co.done = len(co.pending) == 0 && resumed == total
	if resumed > 0 {
		cfg.Logf("fleet: resuming: %d of %d cells already durable, %d to run in %d shards across %d daemons",
			resumed, total, total-resumed, len(co.pending), len(cfg.Endpoints))
	} else {
		cfg.Logf("fleet: %d cells in %d shards across %d daemons", total, len(co.pending), len(cfg.Endpoints))
	}

	start := cfg.Clock.Now()

	// Wake blocked workers if the caller's context dies.
	stopWake := context.AfterFunc(ctx, func() { co.cond.Broadcast() })
	defer stopWake()

	var wg sync.WaitGroup
	daemons := make([]*daemonState, len(cfg.Endpoints))
	for i, ep := range cfg.Endpoints {
		d := &daemonState{endpoint: ep, client: newClient(ep), stats: DaemonStats{Endpoint: ep}}
		daemons[i] = d
		for slot := 0; slot < cfg.InFlightPerDaemon; slot++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				co.worker(ctx, d)
			}()
		}
	}
	wg.Wait()

	co.mu.Lock()
	defer co.mu.Unlock()
	if cfg.Store != nil {
		// Whatever happened, commit the store's view of the merge so a
		// failed or cancelled run resumes from everything that arrived.
		if err := cfg.Store.Sync(); err != nil && co.fatal == nil && ctx.Err() == nil {
			return nil, fmt.Errorf("fleet: store sync: %w", err)
		}
	}
	if co.fatal != nil {
		return nil, co.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := merged.Count(); n != co.total {
		return nil, fmt.Errorf("fleet: merged %d of %d cells", n, co.total)
	}

	sum := Summary{
		Requested: co.total,
		Completed: co.completed,
		Failed:    co.failed,
		Retries:   co.retries,
		Steals:    co.steals,
		Resumed:   resumed,
		Wall:      cfg.Clock.Now().Sub(start),
	}
	// Same policy as a local sweep's fold meeting a kind clash: drop the
	// aggregate, keep the run.
	if co.fold.Err() == nil {
		sum.Metrics = metrics.Records(co.fold.Map())
	}

	// The digest streams the merged records in index order, so a
	// store-backed merge holds O(1) cells in memory, exactly like its
	// append path.
	digest, err := merged.Digest()
	if err != nil {
		return nil, fmt.Errorf("fleet: merge digest: %w", err)
	}
	sum.ResultsDigest = digest

	var recs []harness.CellRecord
	if cfg.Store != nil {
		if err := cfg.Store.SetRecordsDigest(digest); err != nil {
			return nil, fmt.Errorf("fleet: store digest commit: %w", err)
		}
	} else {
		recs = merged.(*grid).records()
		sum.MaxBufferedCells = len(recs)
	}

	var busy time.Duration
	for _, d := range daemons {
		d.stats.Quarantined = d.quarantined
		sum.Daemons = append(sum.Daemons, d.stats)
		busy += d.stats.Busy
	}
	sum.Ideal = busy / time.Duration(len(daemons))
	return &Result{Records: recs, Summary: sum}, nil
}

// VerifyLocal re-runs the scenario in-process and compares its records
// digest with the fleet digest — the end-to-end reproducibility gate. A
// mismatch is a hard error carrying both digests.
func VerifyLocal(ctx context.Context, sc *scenario.Scenario, fleetDigest string) error {
	agg, err := sc.Run(ctx)
	if err != nil {
		return fmt.Errorf("fleet: local verification run: %w", err)
	}
	if local := agg.Digest(); local != fleetDigest {
		return fmt.Errorf("fleet: digest divergence: fleet %s, local %s", fleetDigest, local)
	}
	return nil
}

// worker pulls shards (or steals them) and runs them on d until the run
// finishes, fails, or the daemon is quarantined.
func (co *coordinator) worker(ctx context.Context, d *daemonState) {
	for {
		t := co.next(ctx, d)
		if t == nil {
			return
		}
		co.runTask(ctx, d, t)
	}
}

// next blocks until there is a shard for d to run, stealing from the
// largest in-flight shard when the queue is empty, and returns nil when
// the coordinator is finished (done, fatal, cancelled) or d is
// quarantined.
func (co *coordinator) next(ctx context.Context, d *daemonState) *task {
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if co.done || co.fatal != nil || ctx.Err() != nil || d.quarantined {
			return nil
		}
		if len(co.pending) > 0 {
			item := co.pending[0]
			co.pending = co.pending[1:]
			t := &task{item: item, daemon: d}
			co.running[t] = struct{}{}
			return t
		}
		if len(co.running) == 0 {
			// Nothing pending, nothing running, not done: cells were lost
			// without being re-enqueued — a coordinator bug, not a daemon
			// failure. Fail loudly rather than hang.
			co.fail(fmt.Errorf("fleet: %d of %d cells unaccounted for", co.total-co.merged.Count(), co.total))
			return nil
		}
		if victim := co.stealVictimLocked(); victim != nil {
			victim.stolen = true
			co.steals++
			victim.daemon.stats.StolenFrom++
			co.cfg.Logf("fleet: %s idle, stealing %s from %s (%d cells uncovered)",
				d.endpoint, victim.item.rng, victim.daemon.endpoint, victim.remaining())
			// Cancel outside the lock; the victim's worker observes the
			// cancelled summary, commits what streamed, and re-enqueues the
			// remainder — which this worker then picks up normally.
			co.mu.Unlock()
			if err := victim.daemon.client.cancel(ctx, victim.runID); err != nil {
				co.cfg.Logf("fleet: cancelling %s on %s: %v (daemon failure will requeue it)",
					victim.item.rng, victim.daemon.endpoint, err)
			}
			co.mu.Lock()
			continue
		}
		co.cond.Wait()
	}
}

// stealVictimLocked picks the running task with the most uncovered cells,
// if splitting it is worthwhile. Caller holds co.mu.
func (co *coordinator) stealVictimLocked() *task {
	var victim *task
	for t := range co.running {
		if t.stolen || t.runID == "" {
			continue
		}
		if t.remaining() < 2*minStealCells {
			continue
		}
		if victim == nil || t.remaining() > victim.remaining() ||
			(t.remaining() == victim.remaining() && t.item.rng.Lo < victim.item.rng.Lo) {
			victim = t
		}
	}
	return victim
}

// runTask dispatches one shard to d and settles the outcome: done,
// stolen (split the remainder), or failed (requeue the remainder).
func (co *coordinator) runTask(ctx context.Context, d *daemonState, t *task) {
	// Serve any backoff the daemon has earned before burdening it again.
	co.mu.Lock()
	fails := d.consecFails
	co.mu.Unlock()
	if fails > 0 {
		if err := co.cfg.Clock.Sleep(ctx, backoff(fails)); err != nil {
			co.requeue(t, false)
			return
		}
	}

	sub, err := co.parent.Slice(t.item.rng.Lo, t.item.rng.Count())
	if err != nil {
		co.failTask(t, err)
		return
	}
	body, err := sub.Marshal()
	if err != nil {
		co.failTask(t, err)
		return
	}

	start := co.cfg.Clock.Now()
	runID, cached, err := d.client.submit(ctx, body)
	if err != nil {
		var de *daemonError
		if errors.As(err, &de) && de.status >= 400 && de.status < 500 {
			// The daemon rejected the scenario itself; every daemon would.
			co.failTask(t, fmt.Errorf("fleet: %s rejected shard %s: %w", d.endpoint, t.item.rng, err))
			return
		}
		retryAfter := time.Duration(0)
		if errors.As(err, &de) {
			retryAfter = de.retryAfter
		}
		co.cfg.Logf("fleet: submit %s to %s: %v", t.item.rng, d.endpoint, err)
		co.daemonFailed(d)
		if retryAfter > 0 {
			_ = co.cfg.Clock.Sleep(ctx, retryAfter)
		}
		// No work lost: the shard re-enters the queue without consuming an
		// attempt.
		co.requeue(t, false)
		return
	}

	if cached != nil {
		// The daemon had this shard's digest finished in cache and
		// answered with the complete report — commit it without streaming.
		co.mu.Lock()
		d.stats.Dispatches++
		co.mu.Unlock()
		if cached.Status != service.StatusDone {
			co.daemonFailed(d)
			co.requeue(t, true)
			return
		}
		for _, line := range cached.Cells {
			rec, err := harness.DecodeCanonical(line)
			if err != nil {
				// Like a broken stream: keep what committed, redo the rest.
				co.cfg.Logf("fleet: cached report of %s from %s: %v", t.item.rng, d.endpoint, err)
				co.daemonFailed(d)
				co.requeue(t, true)
				return
			}
			co.appendCell(t, rec, line)
		}
		co.commitDone(d, t, co.cfg.Clock.Now().Sub(start))
		return
	}

	co.mu.Lock()
	t.runID = runID
	d.stats.Dispatches++
	co.mu.Unlock()

	rep, err := d.client.stream(ctx, runID, func(rec harness.CellRecord, line []byte) { co.appendCell(t, rec, line) })
	elapsed := co.cfg.Clock.Now().Sub(start)
	if err != nil {
		// The stream broke before its summary: the daemon (or the network
		// to it) died mid-shard. Each record it delivered was decoded whole
		// and committed on arrival; only the uncovered remainder
		// redispatches, and the loss consumes an attempt.
		co.cfg.Logf("fleet: stream %s from %s broke: %v", t.item.rng, d.endpoint, err)
		co.daemonFailed(d)
		co.requeue(t, true)
		return
	}

	switch rep.Status {
	case service.StatusDone:
		co.commitDone(d, t, elapsed)
	case service.StatusCancelled:
		co.mu.Lock()
		stolen := t.stolen
		co.mu.Unlock()
		if stolen {
			co.commitStolen(d, t, elapsed)
			return
		}
		// Cancelled by the daemon's own lifecycle (drain, shutdown), not
		// by a thief: partial work we did not ask to stop. Keep what
		// arrived and redispatch the rest.
		co.cfg.Logf("fleet: %s cancelled shard %s unasked", d.endpoint, t.item.rng)
		co.daemonFailed(d)
		co.requeue(t, true)
	default:
		co.daemonFailed(d)
		co.failTask(t, fmt.Errorf("fleet: %s finished shard %s in unexpected status %q", d.endpoint, t.item.rng, rep.Status))
	}
}

// appendCell commits one received record to the merge, and tallies it.
// line is the record's canonical encoding as its daemon made it, which
// the record was decoded from and a store keeps as it is.
// Records carrying a context-cancellation error are scheduling artifacts
// — a cell interrupted mid-simulation, not a result — and are dropped so
// their indices stay uncovered and re-run. A record outside the task's
// shard, one already merged, or a failed store append is fatal: either
// the daemon or the disk under the merge is lying.
func (co *coordinator) appendCell(t *task, rec harness.CellRecord, line []byte) {
	if strings.Contains(rec.Err, context.Canceled.Error()) {
		return
	}
	var err error
	if rec.Index < t.item.rng.Lo || rec.Index >= t.item.rng.Hi {
		err = fmt.Errorf("fleet: shard %s streamed out-of-range cell %d", t.item.rng, rec.Index)
	} else if aerr := co.commit(rec, line); aerr != nil {
		err = fmt.Errorf("fleet: merge cell %d of shard %s: %w", rec.Index, t.item.rng, aerr)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if err != nil {
		co.fail(err)
		return
	}
	t.appended++
	co.tally(rec)
}

// commit appends one record and its canonical encoding to the merge.
func (co *coordinator) commit(rec harness.CellRecord, line []byte) error {
	if st := co.cfg.Store; st != nil {
		return st.AppendEncoded(rec.Index, rec.Faults != "", line)
	}
	return co.merged.(*grid).Append(rec, line)
}

// commitDone settles a cleanly finished shard. Its records are already
// merged; done means the daemon claims the shard is whole — hold it to
// that.
func (co *coordinator) commitDone(d *daemonState, t *task, elapsed time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if rest := co.merged.UncoveredIn(t.item.rng); len(rest) > 0 {
		missing := 0
		for _, r := range rest {
			missing += r.Count()
		}
		co.failLocked(t, fmt.Errorf("fleet: %s finished shard %s but %d of its cells never arrived",
			d.endpoint, t.item.rng, missing))
		return
	}
	d.consecFails = 0
	d.stats.Cells += t.appended
	d.stats.Busy += elapsed
	co.settleLocked(t)
}

// commitStolen settles a cancelled victim: the records it cleanly
// completed are already merged (appendCell drops the cancellation
// artifacts), and the uncovered remainder returns to the queue, a single
// large one split so thief and victim can share it.
func (co *coordinator) commitStolen(d *daemonState, t *task, elapsed time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	d.consecFails = 0
	d.stats.Cells += t.appended
	d.stats.Busy += elapsed
	rest := co.merged.UncoveredIn(t.item.rng)
	if len(rest) == 1 && rest[0].Count() >= 2*minStealCells {
		mid := rest[0].Lo + rest[0].Count()/2
		rest = []harness.IndexRange{{Lo: rest[0].Lo, Hi: mid}, {Lo: mid, Hi: rest[0].Hi}}
	}
	for _, rng := range rest {
		co.pending = append(co.pending, shardItem{rng: rng, attempts: t.item.attempts})
	}
	co.cfg.Logf("fleet: shard %s stolen: %d cells kept, %d re-enqueued in %d pieces",
		t.item.rng, t.appended, t.item.rng.Count()-t.appended, len(rest))
	co.settleLocked(t)
}

// requeue settles a task that did not finish: the records it merged stay
// merged and are credited to its daemon, and only the uncovered remainder
// returns to the queue. lostWork consumes one of the shard's attempts,
// and reaching maxAttempts fails the run; a shard whose every cell
// arrived before the failure settles without consuming one.
func (co *coordinator) requeue(t *task, lostWork bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	t.daemon.stats.Cells += t.appended
	item := t.item
	rest := co.merged.UncoveredIn(item.rng)
	if lostWork && len(rest) > 0 {
		item.attempts++
		co.retries++
		t.daemon.stats.Failures++
		if item.attempts >= maxAttempts {
			co.failLocked(t, fmt.Errorf("fleet: shard %s failed %d times, giving up", item.rng, item.attempts))
			return
		}
	}
	for _, rng := range rest {
		co.pending = append(co.pending, shardItem{rng: rng, attempts: item.attempts})
	}
	co.settleLocked(t)
}

// settleLocked removes a finished task and flips done when the grid is
// fully merged. Caller holds co.mu.
func (co *coordinator) settleLocked(t *task) {
	delete(co.running, t)
	if co.merged.Count() == co.total {
		co.done = true
	}
	co.cond.Broadcast()
}

// failTask fails the whole run on a non-recoverable task error.
func (co *coordinator) failTask(t *task, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.failLocked(t, err)
}

func (co *coordinator) failLocked(t *task, err error) {
	delete(co.running, t)
	co.fail(err)
}

// fail records the first fatal error and wakes everyone. Caller holds
// co.mu.
func (co *coordinator) fail(err error) {
	if co.fatal == nil {
		co.fatal = err
	}
	co.cond.Broadcast()
}

// daemonFailed bumps a daemon's consecutive-failure count, quarantining
// it at the limit. The last healthy daemon's quarantine fails the run.
func (co *coordinator) daemonFailed(d *daemonState) {
	co.mu.Lock()
	defer co.mu.Unlock()
	d.consecFails++
	if !d.quarantined && d.consecFails >= failureLimit {
		d.quarantined = true
		co.healthy--
		co.cfg.Logf("fleet: quarantining %s after %d consecutive failures", d.endpoint, d.consecFails)
		if co.healthy == 0 && !co.done {
			co.fail(fmt.Errorf("fleet: no healthy daemons left (all %d quarantined)", len(co.cfg.Endpoints)))
		}
		co.cond.Broadcast()
	}
}

// backoff is the capped exponential schedule served after consecutive
// failures.
func backoff(fails int) time.Duration {
	d := backoffBase
	for i := 1; i < fails && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}
