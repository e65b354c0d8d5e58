package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/network"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/store"
)

// A test-only protocol with a per-round delay so tests can hold shards
// in flight long enough to kill daemons and trigger steals. The delay
// changes wall time only, never results.
func init() {
	err := registry.RegisterProtocol(registry.Protocol{
		Name:   "fleet-slow-fifo",
		Doc:    "test-only: greedy FIFO with a per-round delay",
		Params: registry.Schema{{Name: "delay_us", Kind: registry.Int, Doc: "per-round delay in µs", Default: 0}},
		Build: func(p registry.Params) (sim.Protocol, error) {
			return &delayedProto{inner: baseline.NewGreedy(baseline.FIFO{}), delay: time.Duration(p.Int("delay_us")) * time.Microsecond}, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

type delayedProto struct {
	inner sim.Protocol
	delay time.Duration
}

func (p *delayedProto) Name() string { return p.inner.Name() }

func (p *delayedProto) Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error {
	return p.inner.Attach(nw, bound, dests)
}

func (p *delayedProto) Decide(v sim.View) ([]sim.Forward, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.inner.Decide(v)
}

// gridScenario renders a seeds×rounds sweep; delayUS > 0 selects the
// slow test protocol.
func gridScenario(t *testing.T, name string, seeds, rounds, delayUS int) *scenario.Scenario {
	t.Helper()
	seedList := make([]string, seeds)
	for i := range seedList {
		seedList[i] = strconv.Itoa(i + 1)
	}
	proto := `{"name": "ppts"}`
	if delayUS > 0 {
		proto = fmt.Sprintf(`{"name": "fleet-slow-fifo", "params": {"delay_us": %d}}`, delayUS)
	}
	src := fmt.Sprintf(`{
		"name": %q,
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": %s,
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": [%d, %d],
		"seeds": [%s]
	}`, name, proto, rounds, rounds*2, strings.Join(seedList, ", "))
	sc, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// daemon is one in-process aqtserve: a service behind an httptest
// listener, with a kill switch that aborts in-flight connections and
// refuses everything afterwards — the closest in-process stand-in for
// SIGKILL.
type daemon struct {
	svc  *service.Server
	ts   *httptest.Server
	dead atomic.Bool

	// killAfter > 0 arms the switch: the daemon dies as soon as it has
	// written that many stream lines (across all streams).
	killAfter   int64
	streamLines atomic.Int64

	// before, when set, runs ahead of every request: it may block to hold
	// the request until an event, or panic with http.ErrAbortHandler to
	// drop it.
	before func(r *http.Request)
}

// hold blocks request r until ch is closed or r's client gives up.
func hold(r *http.Request, ch <-chan struct{}) {
	select {
	case <-ch:
	case <-r.Context().Done():
	}
}

func newDaemon(t *testing.T, cfg service.Config) *daemon {
	t.Helper()
	d := &daemon{svc: service.New(cfg)}
	d.ts = httptest.NewServer(http.HandlerFunc(d.serve))
	t.Cleanup(func() {
		d.ts.Close()
		d.svc.Close()
	})
	return d
}

func (d *daemon) addr() string { return strings.TrimPrefix(d.ts.URL, "http://") }

func (d *daemon) kill() {
	if d.dead.CompareAndSwap(false, true) {
		go d.ts.CloseClientConnections()
	}
}

func (d *daemon) serve(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if d.before != nil {
		d.before(r)
	}
	if d.killAfter > 0 && strings.HasSuffix(r.URL.Path, "/stream") {
		w = &killingWriter{d: d, inner: w}
	}
	d.svc.ServeHTTP(w, r)
}

// killingWriter counts stream lines and pulls the kill switch at the
// threshold, so the daemon reliably dies mid-stream: some cells have
// been delivered, the rest never will be.
type killingWriter struct {
	d     *daemon
	inner http.ResponseWriter
}

func (k *killingWriter) Header() http.Header  { return k.inner.Header() }
func (k *killingWriter) WriteHeader(code int) { k.inner.WriteHeader(code) }
func (k *killingWriter) Flush()               { _ = http.NewResponseController(k.inner).Flush() }
func (k *killingWriter) Write(p []byte) (int, error) {
	if k.d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	n, err := k.inner.Write(p)
	lines := k.d.streamLines.Add(int64(strings.Count(string(p[:n]), "\n")))
	if lines >= k.d.killAfter {
		k.d.kill()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func localDigest(t *testing.T, sc *scenario.Scenario) string {
	t.Helper()
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return agg.Digest()
}

// TestFleetMatchesLocalDigest is the core invariant: a healthy 3-daemon
// fleet reproduces the local single-process records digest exactly.
func TestFleetMatchesLocalDigest(t *testing.T) {
	sc := gridScenario(t, "fleet-basic", 6, 60, 0)
	want := localDigest(t, sc)

	eps := startFleet(t, 3)
	res, err := Run(context.Background(), Config{Endpoints: eps, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ResultsDigest != want {
		t.Fatalf("fleet digest %s, local %s", res.Summary.ResultsDigest, want)
	}
	if res.Summary.Requested != 12 || res.Summary.Completed != 12 || res.Summary.Failed != 0 {
		t.Errorf("summary counts: %+v", res.Summary)
	}
	if len(res.Records) != 12 {
		t.Fatalf("%d records, want 12", len(res.Records))
	}
	for i, rec := range res.Records {
		if rec.Index != i {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
	}
	cells := 0
	for _, ds := range res.Summary.Daemons {
		cells += ds.Cells
	}
	if cells != 12 {
		t.Errorf("daemon cell counts sum to %d, want 12", cells)
	}
	if err := VerifyLocal(context.Background(), sc, res.Summary.ResultsDigest); err != nil {
		t.Errorf("VerifyLocal: %v", err)
	}
	if err := VerifyLocal(context.Background(), sc, "sha256:bogus"); err == nil {
		t.Error("VerifyLocal accepted a bogus digest")
	}
}

// mergeModes are the coordinator's two merges: in memory, and into a
// store opened on a fresh directory.
var mergeModes = []struct {
	name  string
	store func(t *testing.T, sc *scenario.Scenario) *store.Store
}{
	{"memory", func(*testing.T, *scenario.Scenario) *store.Store { return nil }},
	{"store", func(t *testing.T, sc *scenario.Scenario) *store.Store { return openStoreFor(t, t.TempDir(), sc) }},
}

// killGrid is a 32-cell sweep, ppts on path(128): big enough that every
// daemon of a 3-daemon fleet gets shards of several cells, so a victim
// killed after a few stream lines always dies mid-shard.
func killGrid(t *testing.T) *scenario.Scenario {
	t.Helper()
	seeds := make([]string, 32)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	sc, err := scenario.Parse([]byte(`{
		"name": "fleet-kill",
		"topology": {"name": "path", "params": {"n": 128}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 4}},
		"bound": {"rho": "1/2", "sigma": 3},
		"rounds": 400,
		"seeds": [` + strings.Join(seeds, ", ") + `]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFleetSurvivesDaemonDeath kills one daemon of three mid-stream
// (after it has delivered a few cells) and requires the merged digest to
// still match the local run in both merge modes: the cells the dead
// daemon delivered stay merged, only the remainder is re-dispatched, and
// nothing is ever double-merged. TestDigestMatrix's kill row runs the
// same fleet over every pinned file.
func TestFleetSurvivesDaemonDeath(t *testing.T) {
	sc := killGrid(t)
	want := localDigest(t, sc)
	healthy := startFleet(t, 2)
	for _, mode := range mergeModes {
		t.Run(mode.name, func(t *testing.T) {
			st := mode.store(t, sc)
			res, victim := runKillingFirst(t, sc, st, healthy)
			if res.Summary.ResultsDigest != want {
				t.Fatalf("fleet digest %s, local %s (retries=%d)", res.Summary.ResultsDigest, want, res.Summary.Retries)
			}
			if !victim.dead.Load() {
				t.Fatal("kill switch never fired")
			}
			if res.Summary.Retries == 0 {
				t.Error("daemon died mid-stream but retries = 0")
			}
			var quarantined bool
			for _, ds := range res.Summary.Daemons {
				if ds.Endpoint == victim.addr() && ds.Quarantined {
					quarantined = true
				}
			}
			if !quarantined {
				t.Error("dead daemon not quarantined")
			}
			wantBuffered := 32
			if st != nil {
				wantBuffered = 0
				if !st.Complete() {
					t.Errorf("store incomplete: %d of 32", st.Count())
				}
			}
			if res.Summary.MaxBufferedCells != wantBuffered {
				t.Errorf("MaxBufferedCells = %d, want %d", res.Summary.MaxBufferedCells, wantBuffered)
			}
		})
	}
}

// TestFleetCreditsCellsOfBrokenStream pins per-daemon accounting after a
// broken stream: the 12-cell grid splits into four 3-cell shards, the
// victim dies after streaming 2 cells of its first, so it is credited
// with exactly those 2 (its later submits fail until it is quarantined),
// the healthy daemon runs the other 10, and the per-daemon cells sum to
// the grid.
func TestFleetCreditsCellsOfBrokenStream(t *testing.T) {
	sc := gridScenario(t, "fleet-broken-stream", 6, 4, 0)
	want := localDigest(t, sc)
	for _, mode := range mergeModes {
		t.Run(mode.name, func(t *testing.T) {
			victim := newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1})
			victim.killAfter = 3 // the third line is written but never flushed
			healthy := newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1})
			// The healthy daemon starts once the victim streams, so the
			// victim always holds a shard when it dies.
			streaming := make(chan struct{})
			var once sync.Once
			victim.before = func(r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/stream") {
					once.Do(func() { close(streaming) })
				}
			}
			healthy.before = func(r *http.Request) {
				if r.Method == http.MethodPost {
					hold(r, streaming)
				}
			}
			cfg := Config{
				Endpoints:         []string{victim.addr(), healthy.addr()},
				Store:             mode.store(t, sc),
				InFlightPerDaemon: 1,
				Clock:             &fakeClock{},
				Logf:              t.Logf,
			}
			res, err := Run(context.Background(), cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.ResultsDigest != want {
				t.Fatalf("fleet digest %s, local %s", res.Summary.ResultsDigest, want)
			}
			if !victim.dead.Load() {
				t.Fatal("kill switch never fired")
			}
			cells := 0
			for _, ds := range res.Summary.Daemons {
				cells += ds.Cells
				if ds.Endpoint == victim.addr() && ds.Cells != 2 {
					t.Errorf("victim credited with %d cells, want the 2 it streamed", ds.Cells)
				}
			}
			if cells != 12 {
				t.Errorf("daemon cell counts sum to %d, want 12", cells)
			}
		})
	}
}

// TestFleetStealsFromSlowDaemon pairs a fast daemon with a serial one
// whose first stream is held until its run is cancelled: the 32-cell grid
// splits into four 8-cell shards, the fast daemon runs three of them and
// goes idle while the straggler's shard is still wholly uncovered
// (2·minStealCells), so it must steal from it, and the merged digest
// still matches local. The fast daemon starts only once the straggler
// streams, so the straggler's run is stealable before the fast daemon
// can go idle.
func TestFleetStealsFromSlowDaemon(t *testing.T) {
	sc := gridScenario(t, "fleet-steal", 16, 10, 500)
	want := localDigest(t, sc)

	fast := newDaemon(t, service.Config{Workers: 2, SweepWorkers: 8})
	slow := newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1})
	streaming, cancelled := make(chan struct{}), make(chan struct{})
	var streamOnce, cancelOnce sync.Once
	slow.before = func(r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			cancelOnce.Do(func() { close(cancelled) })
		case strings.HasSuffix(r.URL.Path, "/stream"):
			streamOnce.Do(func() { close(streaming) })
			hold(r, cancelled)
		}
	}
	fast.before = func(r *http.Request) {
		if r.Method == http.MethodPost {
			hold(r, streaming)
		}
	}

	cfg := Config{
		Endpoints:         []string{fast.addr(), slow.addr()},
		InFlightPerDaemon: 1,
		Logf:              t.Logf,
	}
	// Without a steal the straggler's stream stays held.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ResultsDigest != want {
		t.Fatalf("fleet digest %s, local %s", res.Summary.ResultsDigest, want)
	}
	if res.Summary.Steals != 1 {
		t.Errorf("%d steals, want the fast daemon's one from the straggler", res.Summary.Steals)
	}
	for _, ds := range res.Summary.Daemons {
		if ds.Endpoint == slow.addr() && ds.StolenFrom != 1 {
			t.Errorf("straggler stolen from %d times, want 1", ds.StolenFrom)
		}
	}
}

// TestFleetGivesUpOnShard: a shard whose stream breaks maxAttempts times
// fails the run with "giving up". Both daemons accept every submission
// and drop every stream, and their caches are off, so no resubmission is
// answered from a finished report; quarantining both would take
// 2·failureLimit failures, more than maxAttempts.
func TestFleetGivesUpOnShard(t *testing.T) {
	sc, err := scenario.Parse([]byte(`{
		"name": "fleet-give-up",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 20
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var eps []string
	for range 2 {
		d := newDaemon(t, service.Config{Workers: 1, CacheCells: -1})
		d.before = func(r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stream") {
				panic(http.ErrAbortHandler)
			}
		}
		eps = append(eps, d.addr())
	}
	_, err = Run(context.Background(), Config{Endpoints: eps, Clock: &fakeClock{}, Logf: t.Logf}, sc)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("failed %d times, giving up", maxAttempts)) {
		t.Fatalf("err = %v, want the one-cell shard to give up after %d broken streams", err, maxAttempts)
	}
}

// TestFleetFailsWithoutHealthyDaemons points the coordinator at nothing
// but closed ports: every daemon quarantines and the run fails rather
// than hangs.
func TestFleetFailsWithoutHealthyDaemons(t *testing.T) {
	// Reserve ports by opening and closing listeners.
	dead := make([]string, 2)
	for i := range dead {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead[i] = strings.TrimPrefix(ts.URL, "http://")
		ts.Close()
	}
	sc := gridScenario(t, "fleet-dead", 4, 20, 0)
	clk := &fakeClock{}
	cfg := Config{
		Endpoints: dead,
		Clock:     clk,
		Logf:      t.Logf,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := Run(ctx, cfg, sc)
	if err == nil || !strings.Contains(err.Error(), "no healthy daemons") {
		t.Fatalf("err = %v, want no-healthy-daemons", err)
	}
	if clk.slept.Load() == 0 {
		t.Error("no backoff was served before quarantine")
	}
}

// TestFleetRejectsShardedScenario: the coordinator owns sharding.
func TestFleetRejectsShardedScenario(t *testing.T) {
	sub, err := gridScenario(t, "fleet-pre-sharded", 4, 20, 0).Slice(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Endpoints: []string{"127.0.0.1:1"}}, sub); err == nil {
		t.Fatal("pre-sharded scenario accepted")
	}
	if _, err := Run(context.Background(), Config{}, gridScenario(t, "fleet-no-eps", 2, 20, 0)); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
}

// fakeClock advances a synthetic time on every Sleep, so backoff-heavy
// paths run instantly and deterministically.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept atomic.Int64
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
	c.slept.Add(int64(d))
	return nil
}

// TestBackoffSchedule pins the capped exponential shape.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second,
		2 * time.Second,
	}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}
