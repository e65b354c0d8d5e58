package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"smallbuffers/internal/fleet"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// workload is one traffic mix. Its op count is fixed, so the work is
// fixed and wall time is meaningful. Each of its clients sends ops in a
// closed loop — the next only after the previous one's digest is
// verified — client c taking ops c, c+clients, c+2·clients, ….
type workload struct {
	name    string
	ops     int
	clients int
	// open generates the requests from rng and starts whatever the
	// workload drives. It is part of set-up.
	open func(ctx context.Context, root string, rng *rand.Rand, ops, clients int) (session, error)
}

// The sizes below were calibrated so each measured phase takes 9–17
// seconds on a 2-vCPU box; changing any of them changes the pinned fold
// digests and the baseline. Two clients on two vCPUs; the fleet has one
// coordinator.
var workloads = []workload{
	{name: "hpts-local", ops: 100, clients: 2, open: openHPTS},
	{name: "bigpath-local", ops: 100, clients: 2, open: openBigPath},
	{name: "served-mix", ops: 1000, clients: 2, open: openServed},
	{name: "fleet-resume", ops: 100, clients: 1, open: openFleet},
}

// The cell sizes of the workloads whose ops are generated cells.
const (
	hptsRounds    = 320
	bigPathNodes  = 4096
	bigPathRounds = 40
	fleetRounds   = 200
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// session is one workload's live set-up.
type session interface {
	// warmup runs one op from outside the measured set.
	warmup(ctx context.Context) error
	// do runs measured op i and returns its verified results digest; t
	// is nil on untraced runs. The clients call it concurrently, each
	// with its own ops.
	do(ctx context.Context, i int, t *opTrace) (string, error)
	// replay runs what the daemons executed through the traced local
	// path, checking each digest against what the daemon returned.
	replay(ctx context.Context) ([]*opTrace, error)
	// rounds is the number of simulation rounds op i executed.
	rounds(i int) (int, error)
	close() error
}

// --- scenario JSON the generators emit -------------------------------

type component struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

type scenarioDoc struct {
	Name       string      `json:"name"`
	Topology   *component  `json:"topology,omitempty"`
	Topologies []component `json:"topologies,omitempty"`
	Protocol   *component  `json:"protocol,omitempty"`
	Protocols  []component `json:"protocols,omitempty"`
	Adversary  component   `json:"adversary"`
	Bound      struct {
		Rho   string `json:"rho"`
		Sigma int    `json:"sigma"`
	} `json:"bound"`
	Rounds int     `json:"rounds"`
	Seed   int64   `json:"seed,omitempty"`
	Seeds  []int64 `json:"seeds,omitempty"`
}

func (d scenarioDoc) encode() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // only static types: cannot fail
	}
	return b
}

// seedDrawer hands out distinct adversary seeds, so no two generated
// cold requests share a digest.
type seedDrawer struct {
	rng  *rand.Rand
	used map[int64]bool
}

func (s *seedDrawer) next() int64 {
	for {
		v := s.rng.Int63n(1<<31) + 1
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// stratified returns n kind indices, each of the kinds appearing n/kinds
// times (remainders to the first kinds), in a seeded random order. The
// multiset is the same for every seed, so only the draws inside each kind
// vary between seeds, which keeps run-to-run spread low.
func stratified(rng *rand.Rand, n, kinds int) []int {
	out := make([]int, 0, n)
	for k := 0; k < kinds; k++ {
		for j := 0; j < n/kinds; j++ {
			out = append(out, k)
		}
	}
	for k := 0; len(out) < n; k++ {
		out = append(out, k)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- in-process workloads ---------------------------------------------

// hptsKinds are hpts-local's cell kinds. Theorem 4.1's hierarchy needs
// n = m^ℓ and ρ ≤ 1/ℓ: path(256) is 16² and 4⁴. An op runs one cell of
// each kind, in turn: their costs differ by about 2.5×, so with one cell
// per op the median op would sit on the gap between the two populations
// and jump between them from run to run.
var hptsKinds = []struct {
	ell int
	rho string
}{{2, "1/2"}, {4, "1/4"}}

func openHPTS(_ context.Context, _ string, rng *rand.Rand, ops, _ int) (session, error) {
	seeds := &seedDrawer{rng: rng, used: map[int64]bool{}}
	mk := func(k int) []byte {
		d := scenarioDoc{
			Name:      "hpts-local",
			Topology:  &component{Name: "path", Params: map[string]any{"n": 256}},
			Protocol:  &component{Name: "hpts", Params: map[string]any{"ell": hptsKinds[k].ell}},
			Adversary: component{Name: "random", Params: map[string]any{"d": 255}},
			Rounds:    hptsRounds,
			Seed:      seeds.next(),
		}
		d.Bound.Rho, d.Bound.Sigma = hptsKinds[k].rho, 2
		return d.encode()
	}
	s := &localSession{warm: mk(1)}
	for i := 0; i < ops; i++ {
		var op [][]byte
		for k := range hptsKinds {
			op = append(op, mk(k))
		}
		s.reqs = append(s.reqs, op)
	}
	return s, nil
}

// bigPathKinds are bigpath-local's op kinds, drawn equally often: no
// HPTS, long routes. Their costs overlap, so an op is one cell.
var bigPathKinds = []struct {
	protocol string
	d        int
}{
	{"greedy-fifo", 4}, {"greedy-fifo", 8}, {"greedy-fifo", 16},
	{"ppts", 4}, {"ppts", 8}, {"ppts", 16},
}

func openBigPath(_ context.Context, _ string, rng *rand.Rand, ops, _ int) (session, error) {
	seeds := &seedDrawer{rng: rng, used: map[int64]bool{}}
	mk := func(k int) []byte {
		d := scenarioDoc{
			Name:      "bigpath-local",
			Topology:  &component{Name: "path", Params: map[string]any{"n": bigPathNodes}},
			Protocol:  &component{Name: bigPathKinds[k].protocol},
			Adversary: component{Name: "random", Params: map[string]any{"d": bigPathKinds[k].d}},
			Rounds:    bigPathRounds,
			Seed:      seeds.next(),
		}
		d.Bound.Rho, d.Bound.Sigma = "1", 2
		return d.encode()
	}
	s := &localSession{warm: mk(3)}
	for _, k := range stratified(rng, ops, len(bigPathKinds)) {
		s.reqs = append(s.reqs, [][]byte{mk(k)})
	}
	return s, nil
}

// localSession runs each request in process, as aqtsim -scenario does.
type localSession struct {
	reqs [][][]byte // per op, the scenarios it runs in turn
	warm []byte
}

func (s *localSession) warmup(ctx context.Context) error {
	_, err := runLocal(ctx, s.warm, nil)
	return err
}

func (s *localSession) do(ctx context.Context, i int, t *opTrace) (string, error) {
	if t != nil {
		t.kind = "local"
	}
	var digests []string
	for _, body := range s.reqs[i] {
		d, err := runLocal(ctx, body, t)
		if err != nil {
			return "", err
		}
		digests = append(digests, d)
	}
	return strings.Join(digests, " "), nil
}

func (s *localSession) replay(context.Context) ([]*opTrace, error) { return nil, nil }

func (s *localSession) rounds(i int) (int, error) {
	n := 0
	for _, body := range s.reqs[i] {
		m, err := gridRounds(body, 0)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

func (s *localSession) close() error { return nil }

// runLocal is the in-process user path: scenario.Parse → Sweep → Run →
// results digest, what `aqtsim -scenario f -result-digest` does. Any
// failed cell fails the op: a digest alone proves nothing, because a
// grid whose cells all failed still has one.
func runLocal(ctx context.Context, body []byte, t *opTrace) (string, error) {
	s := time.Now()
	sc, err := scenario.Parse(body)
	t.span("scenario.parse", "scenario", s)
	if err != nil {
		return "", err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return "", err
	}
	if t != nil {
		instrument(sw, t)
	}
	res, err := sw.Run(ctx)
	if err != nil {
		return "", err
	}
	if res.Failed > 0 {
		return "", fmt.Errorf("%d of %d cells failed: %v", res.Failed, res.Requested, res.FirstErr())
	}
	return res.Digest(), nil
}

// gridRounds sums the horizon of every cell of body's grid with index ≥
// from: the rounds a run of those cells simulates.
func gridRounds(body []byte, from int) (int, error) {
	sc, err := scenario.Parse(body)
	if err != nil {
		return 0, err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return 0, err
	}
	cells, err := sw.CellsToRun()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range cells {
		if c.Index >= from {
			n += c.Rounds
		}
	}
	return n, nil
}

// --- served-mix ----------------------------------------------------------

const (
	// servedWindow is how far back a warm request may reach: it repeats
	// one of its client's last servedWindow requests.
	servedWindow = 32
	// servedWarmUp is the corpus file of the warm-up request: it selects
	// every collector, so their code is warm before timing starts.
	servedWarmUp = "metrics-full.json"
)

// A served-mix op is one cold request and then one warm request, so half
// the requests are cold and half warm, and an op's latency has a single
// population. With single requests as ops, the median would sit on the
// gap between the sub-millisecond warm and the multi-millisecond cold
// requests and jump between them from run to run.
type servedReq struct {
	cold    []byte // a corpus file with its seeds replaced by a drawn one
	replays bool   // cold is a distinct scenario the daemon simulates
	origin  int    // the op whose cold request the warm request repeats
}

type servedSession struct {
	reqs    []servedReq
	warm    []byte
	srv     *service.Server
	ts      *httptest.Server
	client  *http.Client
	digests []string // per op, its cold request's results digest
	cached  [][2]bool
}

// loadCorpus reads the repository's scenario corpus, sorted by name.
func loadCorpus(root string) ([][]byte, []string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "scenarios", "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no scenario files under %s", filepath.Join(root, "testdata", "scenarios"))
	}
	sort.Strings(paths)
	var files [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, b)
	}
	return files, paths, nil
}

// reseed returns file with its seeds replaced by seed. Self-hosting
// adversaries (the lower-bound construction) are deterministic and
// travel verbatim, so after its first request that file is a cache hit.
func reseed(file []byte, seed int64) ([]byte, bool, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(file, &m); err != nil {
		return nil, false, err
	}
	var adv component
	if err := json.Unmarshal(m["adversary"], &adv); err != nil {
		return nil, false, fmt.Errorf("adversary: %w", err)
	}
	e, err := registry.LookupAdversary(adv.Name)
	if err != nil {
		return nil, false, err
	}
	if e.SelfHosting() {
		return file, false, nil
	}
	delete(m, "seeds")
	m["seed"] = json.RawMessage(fmt.Sprint(seed))
	b, err := json.Marshal(m)
	return b, true, err
}

func openServed(_ context.Context, root string, rng *rand.Rand, ops, clients int) (session, error) {
	files, paths, err := loadCorpus(root)
	if err != nil {
		return nil, err
	}
	seeds := &seedDrawer{rng: rng, used: map[int64]bool{}}
	cold := func(f int) ([]byte, bool, error) {
		b, reseeded, err := reseed(files[f], seeds.next())
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", paths[f], err)
		}
		return b, reseeded, nil
	}
	s := &servedSession{reqs: make([]servedReq, ops), digests: make([]string, ops), cached: make([][2]bool, ops)}
	for f, p := range paths {
		if filepath.Base(p) == servedWarmUp {
			if s.warm, _, err = cold(f); err != nil {
				return nil, err
			}
		}
	}
	// Cold requests cover every corpus file equally often. A client's
	// history holds, for each of its requests so far, the op whose cold
	// request it sent (a warm request repeats a cold one).
	history := make([][]int, clients)
	for i, f := range stratified(rng, ops, len(files)) {
		r := &s.reqs[i]
		if r.cold, r.replays, err = cold(f); err != nil {
			return nil, err
		}
		h := append(history[i%clients], i)
		r.origin = h[len(h)-1-rng.Intn(min(servedWindow, len(h)))]
		history[i%clients] = append(h, r.origin)
	}
	s.srv = service.New(service.Config{Workers: 2, SweepWorkers: 1})
	s.ts = httptest.NewServer(s.srv)
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return s, nil
}

func (s *servedSession) warmup(ctx context.Context) error {
	_, err := s.post(ctx, s.warm, "service.cold", nil)
	return err
}

// post sends one synchronous POST /v1/runs, decodes the report and, on a
// traced run, adds the call to the span name.
func (s *servedSession) post(ctx context.Context, body []byte, name string, t *opTrace) (*service.Report, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var rep service.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("POST /v1/runs: decoding report: %w", err)
	}
	t.span(name, "service", start)
	if t != nil {
		t.responses = append(t.responses, response{bytes: len(data), cached: rep.Cached})
	}
	if rep.Status != service.StatusDone || rep.Summary == nil {
		return nil, fmt.Errorf("run %s ended %q: %s", rep.ID, rep.Status, rep.Error)
	}
	if rep.Summary.Failed > 0 {
		return nil, fmt.Errorf("run %s: %d of %d cells failed", rep.ID, rep.Summary.Failed, rep.Summary.Requested)
	}
	if t != nil {
		// What the daemon does before its cache lookup, timed from the
		// client: the daemon itself cannot be wrapped.
		ps := time.Now()
		sc, err := scenario.Parse(body)
		t.span("scenario.parse", "scenario", ps)
		if err != nil {
			return nil, err
		}
		ds := time.Now()
		_, err = sc.Digest()
		t.span("scenario.digest", "scenario", ds)
		if err != nil {
			return nil, err
		}
	}
	return &rep, nil
}

// do sends op i's cold request, then its warm one, which must return the
// digest its origin's cold request returned. The origin is an earlier op
// of the same client, or op i itself.
func (s *servedSession) do(ctx context.Context, i int, t *opTrace) (string, error) {
	r := s.reqs[i]
	if t != nil {
		t.kind = "served"
	}
	rep, err := s.post(ctx, r.cold, "service.cold", t)
	if err != nil {
		return "", err
	}
	s.digests[i], s.cached[i][0] = rep.ResultsDigest, rep.Cached
	warm, err := s.post(ctx, s.reqs[r.origin].cold, "service.warm", t)
	if err != nil {
		return "", err
	}
	s.cached[i][1] = warm.Cached
	if warm.ResultsDigest != s.digests[r.origin] {
		return "", fmt.Errorf("op %d: warm request returned %s, its cold request (op %d) returned %s",
			i, warm.ResultsDigest, r.origin, s.digests[r.origin])
	}
	return rep.ResultsDigest, nil
}

// replay runs every distinct cold scenario through the traced local path
// and checks that the daemon returned the same digest.
func (s *servedSession) replay(ctx context.Context) ([]*opTrace, error) {
	var out []*opTrace
	for i, r := range s.reqs {
		if !r.replays {
			continue
		}
		t := &opTrace{id: i, kind: "replay", start: time.Now()}
		d, err := runLocal(ctx, r.cold, t)
		t.dur = time.Since(t.start)
		if err != nil {
			return nil, fmt.Errorf("replay of op %d: %w", i, err)
		}
		if d != s.digests[i] {
			return nil, fmt.Errorf("op %d: daemon returned %s, the local path %s", i, s.digests[i], d)
		}
		out = append(out, t)
	}
	return out, nil
}

// rounds counts the rounds the daemon simulated for op i: none for a
// request it answered from its cache.
func (s *servedSession) rounds(i int) (int, error) {
	n := 0
	for k, body := range [2][]byte{s.reqs[i].cold, s.reqs[s.reqs[i].origin].cold} {
		if s.cached[i][k] {
			continue
		}
		m, err := gridRounds(body, 0)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

func (s *servedSession) close() error {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
	return nil
}

// --- fleet-resume ------------------------------------------------------

const (
	fleetDaemons = 2
	// fleetReplayEvery picks the fleet grids the traced run replays
	// locally to attribute the daemons' simulation cost.
	fleetReplayEvery = 10
)

type fleetSession struct {
	grids   [][]byte
	warm    []byte
	dir     string
	daemons []*service.Server
	servers []*httptest.Server
	digests []string
}

func openFleet(_ context.Context, _ string, rng *rand.Rand, ops, _ int) (session, error) {
	seeds := &seedDrawer{rng: rng, used: map[int64]bool{}}
	mk := func() []byte {
		d := scenarioDoc{
			Name: "fleet-grid",
			Topologies: []component{
				{Name: "path", Params: map[string]any{"n": 16}},
				{Name: "binary", Params: map[string]any{"height": 3}},
				{Name: "spider", Params: map[string]any{"arms": 3, "len": 5}},
			},
			Protocols: []component{{Name: "greedy-fifo"}, {Name: "greedy-lis"}, {Name: "greedy-ntg"}, {Name: "tree-ppts"}},
			Adversary: component{Name: "random", Params: map[string]any{"d": 2}},
			Rounds:    fleetRounds,
		}
		d.Bound.Rho, d.Bound.Sigma = "1/2", 2
		for k := 0; k < 4; k++ {
			d.Seeds = append(d.Seeds, seeds.next())
		}
		return d.encode()
	}
	s := &fleetSession{warm: mk(), digests: make([]string, ops)}
	for i := 0; i < ops; i++ {
		s.grids = append(s.grids, mk())
	}
	dir, err := os.MkdirTemp("", "aqtperf-fleet-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	for k := 0; k < fleetDaemons; k++ {
		srv := service.New(service.Config{Workers: 1, SweepWorkers: 1})
		s.daemons = append(s.daemons, srv)
		s.servers = append(s.servers, httptest.NewServer(srv))
	}
	return s, nil
}

func (s *fleetSession) warmup(ctx context.Context) error {
	_, err := s.pair(ctx, s.warm, "warmup", nil)
	return err
}

func (s *fleetSession) do(ctx context.Context, i int, t *opTrace) (string, error) {
	if t != nil {
		t.kind = "fresh+resume"
	}
	d, err := s.pair(ctx, s.grids[i], fmt.Sprint("op", i), t)
	s.digests[i] = d
	return d, err
}

// pair is one fleet-resume op: a fresh fleet run of the grid merged into
// a new store entry, then a resume of the same grid from another new
// entry seeded with the first half of those records, with the rest
// dispatched. Both digests must agree.
func (s *fleetSession) pair(ctx context.Context, body []byte, tag string, t *opTrace) (string, error) {
	ps := time.Now()
	sc, err := scenario.Parse(body)
	t.span("scenario.parse", "scenario", ps)
	if err != nil {
		return "", err
	}
	ds := time.Now()
	dig, err := sc.Digest()
	t.span("scenario.digest", "scenario", ds)
	if err != nil {
		return "", err
	}
	total, err := sc.GridSize()
	if err != nil {
		return "", err
	}
	span := harness.IndexRange{Lo: 0, Hi: total}
	freshRoot := filepath.Join(s.dir, tag+"-fresh")
	fresh, err := s.run(ctx, sc, dig, span, freshRoot, "", t)
	if err != nil {
		return "", fmt.Errorf("fresh run: %w", err)
	}
	resumed, err := s.run(ctx, sc, dig, span, filepath.Join(s.dir, tag+"-resume"), freshRoot, t)
	if err != nil {
		return "", fmt.Errorf("resume: %w", err)
	}
	if resumed != fresh {
		return "", fmt.Errorf("resumed digest %s differs from the fresh run's %s", resumed, fresh)
	}
	return fresh, nil
}

// run executes one fleet run into a new store entry under root. With
// from set, the entry first receives the lower half of the grid's
// records from the entry under from.
func (s *fleetSession) run(ctx context.Context, sc *scenario.Scenario, dig string, span harness.IndexRange, root, from string, t *opTrace) (string, error) {
	st, err := s.open(root, dig, span, t)
	if err != nil {
		return "", err
	}
	defer st.Close() // error paths only; the success path checks Close
	if from != "" {
		if err := s.copyHalf(st, from, dig, span, t); err != nil {
			return "", err
		}
	}
	fs := time.Now()
	res, err := fleet.Run(ctx, fleet.Config{Endpoints: s.endpoints(), InFlightPerDaemon: 1, Store: st}, sc)
	t.span("fleet.run", "fleet", fs)
	if err != nil {
		return "", err
	}
	sum := res.Summary
	if sum.Failed > 0 {
		return "", fmt.Errorf("%d of %d cells failed", sum.Failed, sum.Requested)
	}
	gs := time.Now()
	d, err := st.Digest()
	t.span("store.digest", "store", gs)
	if err != nil {
		return "", err
	}
	if d != sum.ResultsDigest {
		return "", fmt.Errorf("store re-derives %s, the fleet reported %s", d, sum.ResultsDigest)
	}
	cs := time.Now()
	err = st.Close()
	t.span("store.close", "store", cs)
	if err != nil {
		return "", err
	}
	if t != nil {
		fr := fleetRun{wall: sum.Wall, ideal: sum.Ideal, retries: sum.Retries, steals: sum.Steals}
		for _, dm := range sum.Daemons {
			fr.busy += dm.Busy
			fr.dispatches += dm.Dispatches
		}
		t.fleet = append(t.fleet, fr)
		if from == "" {
			n, err := dirBytes(store.EntryDir(root, dig))
			if err != nil {
				return "", err
			}
			t.storeBytes += n
			t.storeCells += span.Count()
		}
	}
	return d, nil
}

func (s *fleetSession) open(root, dig string, span harness.IndexRange, t *opTrace) (*store.Store, error) {
	start := time.Now()
	st, err := store.Open(root, dig, span, store.Options{})
	t.span("store.open", "store", start)
	return st, err
}

// copyHalf appends the records with index below the middle of span from
// the entry under from to dst: the checkpoint a resumed run starts from.
func (s *fleetSession) copyHalf(dst *store.Store, from, dig string, span harness.IndexRange, t *opTrace) error {
	src, err := s.open(from, dig, span, t)
	if err != nil {
		return err
	}
	defer src.Close() // read only
	half := span.Lo + span.Count()/2
	err = src.Scan(func(rec harness.CellRecord) error {
		if rec.Index >= half {
			return nil
		}
		as := time.Now()
		err := dst.Append(rec)
		t.span("store.append", "store", as)
		return err
	})
	if err != nil {
		return err
	}
	return dst.Sync()
}

func (s *fleetSession) endpoints() []string {
	out := make([]string, len(s.servers))
	for i, ts := range s.servers {
		out[i] = ts.URL
	}
	return out
}

// replay runs a sample of the fleet grids through the traced local path.
func (s *fleetSession) replay(ctx context.Context) ([]*opTrace, error) {
	var out []*opTrace
	for i := 0; i < len(s.grids); i += fleetReplayEvery {
		t := &opTrace{id: i, kind: "replay", start: time.Now()}
		d, err := runLocal(ctx, s.grids[i], t)
		t.dur = time.Since(t.start)
		if err != nil {
			return nil, fmt.Errorf("replay of op %d: %w", i, err)
		}
		if d != s.digests[i] {
			return nil, fmt.Errorf("op %d: the fleet returned %s, the local path %s", i, s.digests[i], d)
		}
		out = append(out, t)
	}
	return out, nil
}

// rounds counts a fresh run of the whole grid plus the resumed half.
func (s *fleetSession) rounds(i int) (int, error) {
	all, err := gridRounds(s.grids[i], 0)
	if err != nil {
		return 0, err
	}
	total, err := gridSize(s.grids[i])
	if err != nil {
		return 0, err
	}
	rest, err := gridRounds(s.grids[i], total/2)
	return all + rest, err
}

func gridSize(body []byte) (int, error) {
	sc, err := scenario.Parse(body)
	if err != nil {
		return 0, err
	}
	return sc.GridSize()
}

func (s *fleetSession) close() error {
	for i, ts := range s.servers {
		ts.Close()
		s.daemons[i].Close()
	}
	return os.RemoveAll(s.dir)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
