package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/live"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// pinnedFile is one file of testdata/scenarios or testdata/experiments
// with the results digest testdata pins for it.
type pinnedFile struct {
	name string // "scenarios/metrics-full.json"
	body []byte
	pin  string
	// local runs the file in-process, once: the local row's run and the
	// records the resume row seeds its store with.
	local func() (*harness.SweepResult, error)
}

// parse loads a fresh copy of the file: Validate materializes defaults in
// place, so parallel rows must not share one Scenario.
func (f pinnedFile) parse(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse(f.body)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// pinnedFiles reads every scenario file under testdata with its pin.
func pinnedFiles(t *testing.T) []pinnedFile {
	t.Helper()
	var files []pinnedFile
	for _, corpus := range []struct{ dir, pins string }{
		{"scenarios", "corpus_digests.json"},
		{"experiments", "experiment_digests.json"},
	} {
		data, err := os.ReadFile(filepath.Join("../../testdata", corpus.pins))
		if err != nil {
			t.Fatal(err)
		}
		var pins map[string]string
		if err := json.Unmarshal(data, &pins); err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join("../../testdata", corpus.dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != len(pins) {
			t.Fatalf("testdata/%s has %d files but %d pins", corpus.dir, len(paths), len(pins))
		}
		for _, path := range paths {
			pin, ok := pins[filepath.Base(path)]
			if !ok {
				t.Fatalf("no pin for %s in testdata/%s", path, corpus.pins)
			}
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, pinnedFile{
				name: corpus.dir + "/" + filepath.Base(path),
				body: body,
				pin:  pin,
				local: sync.OnceValues(func() (*harness.SweepResult, error) {
					sc, err := scenario.Parse(body)
					if err != nil {
						return nil, err
					}
					return sc.Run(context.Background())
				}),
			})
		}
	}
	return files
}

// heavyRows names, for a pinned file too heavy to run on every row, the
// rows besides validate that it runs on. e5-m12-ell2-rho3-4.json runs
// eight cells of 1,728 rounds on 432 nodes, about 0.5 s a run on two
// vCPUs against 0.005–0.15 s for every other file, so it runs in
// process, on one daemon and across a fleet.
var heavyRows = map[string]map[string]bool{
	"experiments/e5-m12-ell2-rho3-4.json": {"local": true, "served": true, "fleet3": true},
}

// TestDigestMatrix is the reproducibility oracle for every execution
// path: each pinned file's results digest must come out of each row,
// whether the grid runs in-process, on one daemon, watched over SSE and
// /live, across a fleet, across a fleet that loses a daemon mid-stream,
// resumed from half a store entry, or from the durable cache of a
// restarted daemon. No row sleeps or waits on the wall clock.
func TestDigestMatrix(t *testing.T) {
	files := pinnedFiles(t)

	t.Run("validate", func(t *testing.T) {
		for _, f := range files {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				first, err := f.parse(t).Marshal()
				if err != nil {
					t.Fatal(err)
				}
				second, err := pinnedFile{body: first}.parse(t).Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, second) {
					t.Errorf("canonical form is not a Marshal∘Parse fixed point:\n%s\n%s", first, second)
				}
			})
		}
	})

	served := newDaemon(t, service.Config{Workers: 4, SweepWorkers: 3})
	var servedFiles atomic.Int64
	// Once every row has run, the served daemon's cache hits are exactly
	// the served row's repeat POSTs.
	t.Cleanup(func() {
		if got, want := metricValue(t, served.ts.URL, "aqtserve_runs_cached_total"), servedFiles.Load(); int64(got) != want {
			t.Errorf("aqtserve_runs_cached_total = %d after %d repeat POSTs", got, want)
		}
	})
	watched := newDaemon(t, service.Config{Workers: 2, SweepWorkers: 3})
	fleet3 := startFleet(t, 3)
	healthy := startFleet(t, 2)
	resumers := startFleet(t, 3)

	rows := []struct {
		name string
		run  func(t *testing.T, f pinnedFile) string
	}{
		{name: "local", run: func(t *testing.T, f pinnedFile) string {
			agg, err := f.local()
			if err != nil {
				t.Fatal(err)
			}
			return agg.Digest()
		}},
		{name: "served", run: func(t *testing.T, f pinnedFile) string {
			rep := postRun(t, served.ts.URL, f.body, "", http.StatusOK)
			checkSummary(t, f, rep.Summary)
			again := postRun(t, served.ts.URL, f.body, "", http.StatusOK)
			servedFiles.Add(1)
			if !again.Cached || again.ResultsDigest != rep.ResultsDigest {
				t.Errorf("repeat POST: cached %v, digest %s; want cached %s", again.Cached, again.ResultsDigest, rep.ResultsDigest)
			}
			return rep.ResultsDigest
		}},
		{name: "watched", run: func(t *testing.T, f pinnedFile) string {
			return watchRun(t, watched.ts.URL, f)
		}},
		{name: "fleet3", run: func(t *testing.T, f pinnedFile) string {
			res, err := Run(context.Background(), Config{Endpoints: fleet3, Logf: t.Logf}, f.parse(t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, f, res.Summary.Metrics)
			return res.Summary.ResultsDigest
		}},
		{name: "kill", run: func(t *testing.T, f pinnedFile) string {
			sc := f.parse(t)
			res, _ := runKillingFirst(t, sc, openStoreFor(t, t.TempDir(), sc), healthy)
			checkMetrics(t, f, res.Summary.Metrics)
			return res.Summary.ResultsDigest
		}},
		{name: "resume", run: func(t *testing.T, f pinnedFile) string {
			return resumeFromHalf(t, f, resumers)
		}},
		{name: "restart", run: func(t *testing.T, f pinnedFile) string {
			dir := t.TempDir()
			first := newDaemon(t, service.Config{Workers: 2, CacheDir: dir})
			rep := postRun(t, first.ts.URL, f.body, "", http.StatusOK)
			first.ts.Close()
			first.svc.Close()
			again := postRun(t, newDaemon(t, service.Config{Workers: 2, CacheDir: dir}).ts.URL, f.body, "", http.StatusOK)
			if !again.Cached || again.ResultsDigest != rep.ResultsDigest {
				t.Errorf("POST after restart: cached %v, digest %s; want cached %s", again.Cached, again.ResultsDigest, rep.ResultsDigest)
			}
			return again.ResultsDigest
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			for _, f := range files {
				if rows, heavy := heavyRows[f.name]; heavy && !rows[row.name] {
					continue
				}
				t.Run(f.name, func(t *testing.T) {
					t.Parallel()
					if got := row.run(t, f); got != f.pin {
						t.Errorf("results digest %s, pinned %s", got, f.pin)
					}
				})
			}
		})
	}
}

// startFleet starts n in-process daemons and returns their endpoints.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	eps := make([]string, n)
	for i := range eps {
		eps[i] = newDaemon(t, service.Config{Workers: 2, SweepWorkers: 2}).addr()
	}
	return eps
}

// runKillingFirst runs sc on a fleet of a fresh victim daemon followed by
// the healthy endpoints, merging into st (memory when nil) under a fake
// clock. The victim dies once it has written two stream lines; it is
// listed first, so its workers start first and it is dispatched a shard.
func runKillingFirst(t *testing.T, sc *scenario.Scenario, st *store.Store, healthy []string) (*Result, *daemon) {
	t.Helper()
	victim := newDaemon(t, service.Config{Workers: 2, SweepWorkers: 1})
	victim.killAfter = 2
	cfg := Config{
		Endpoints: append([]string{victim.addr()}, healthy...),
		Store:     st,
		Clock:     &fakeClock{},
		Logf:      t.Logf,
	}
	res, err := Run(context.Background(), cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	return res, victim
}

// resumeFromHalf seeds a store entry for f with the first ⌊n/2⌋ of its n
// local records, as a coordinator killed halfway leaves it, reopens the
// entry and runs the rest on eps.
func resumeFromHalf(t *testing.T, f pinnedFile, eps []string) string {
	t.Helper()
	agg, err := f.local()
	if err != nil {
		t.Fatal(err)
	}
	half := agg.Requested / 2
	sc := f.parse(t)
	root := t.TempDir()
	prev := openStoreFor(t, root, sc)
	for _, rec := range agg.Records()[:half] {
		if err := prev.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{Endpoints: eps, Store: openStoreFor(t, root, sc), Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Resumed != half {
		t.Errorf("resumed %d cells, want %d", res.Summary.Resumed, half)
	}
	checkMetrics(t, f, res.Summary.Metrics)
	return res.Summary.ResultsDigest
}

// watchRun submits f without waiting, follows the run's SSE stream to its
// summary and reads the run's /live view after every event, then returns
// the finished run's digest. Every cell frame must be the stream event
// json.Marshal makes of the local run's record, and the bytes the
// coordinator cuts from it that record's own encoding.
func watchRun(t *testing.T, base string, f pinnedFile) string {
	t.Helper()
	agg, err := f.local()
	if err != nil {
		t.Fatal(err)
	}
	recs := agg.Records()
	id := postRun(t, base, f.body, "?wait=0", http.StatusAccepted).ID
	req, err := http.NewRequest(http.MethodGet, base+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view live.View
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 4<<10), 16<<20)
	for sc.Scan() {
		if event, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = event
			getJSON(t, base+"/v1/runs/"+id+"/live", &view)
		} else if data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok && last == "cell" {
			checkCellFrame(t, recs, data)
		}
	}
	if err := sc.Err(); err != nil || last != "summary" {
		t.Fatalf("SSE stream ended after event %q: %v", last, err)
	}
	var rep service.Report
	getJSON(t, base+"/v1/runs/"+id, &rep)
	if rep.Status != service.StatusDone {
		t.Fatalf("run %s is %q after its summary event", id, rep.Status)
	}
	if f.name == "scenarios/e13-live-window.json" {
		getJSON(t, base+"/v1/runs/"+id+"/live", &view)
		if got, want := metricNames(view.Metrics), "delivery,goodput_window,window_load"; got != want {
			t.Errorf("/live metrics %s, want %s", got, want)
		}
	}
	return rep.ResultsDigest
}

// checkCellFrame checks one cell frame against the local records: the
// frame is json.Marshal of the stream event, and service.CutCellFrame
// cuts json.Marshal of the record from it.
func checkCellFrame(t *testing.T, recs []harness.CellRecord, frame []byte) {
	t.Helper()
	var ev struct {
		Type string `json:"type"`
		harness.CellRecord
	}
	if err := json.Unmarshal(frame, &ev); err != nil || ev.Index < 0 || ev.Index >= len(recs) {
		t.Fatalf("cell frame %.200s: index %d of %d, %v", frame, ev.Index, len(recs), err)
	}
	ev.CellRecord = recs[ev.Index]
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("cell %d's frame:\n %s\nwant\n %s", ev.Index, frame, want)
	}
	line, ok := service.CutCellFrame(frame)
	if want, err = json.Marshal(recs[ev.Index]); err != nil {
		t.Fatal(err)
	}
	if !ok || !bytes.Equal(line, want) {
		t.Errorf("cell %d: cut %s from its frame, want %s", ev.Index, line, want)
	}
}

// checkSummary checks a served summary's merged metrics (see
// checkMetrics) and what two corpus files exist to show beyond their
// digest: metrics-full's collectors and faults-lossy's losses.
func checkSummary(t *testing.T, f pinnedFile, sum *service.Summary) {
	t.Helper()
	if sum == nil {
		t.Fatal("report carries no summary")
	}
	checkMetrics(t, f, sum.Metrics)
	switch f.name {
	case "scenarios/metrics-full.json":
		if got, want := metricNames(sum.Metrics), "latency,link_util_series,load_hist,load_series,max_load"; got != want {
			t.Errorf("summary metrics %s, want %s", got, want)
		}
	case "scenarios/faults-lossy.json":
		if sum.DroppedTotal <= 0 {
			t.Errorf("dropped_total = %d for a lossy grid, want > 0", sum.DroppedTotal)
		}
	}
}

// checkMetrics checks a row's merged metric summaries against the local
// run's, wire byte for wire byte: every path folds the same records to
// the same aggregate.
func checkMetrics(t *testing.T, f pinnedFile, got []metrics.Summary) {
	t.Helper()
	agg, err := f.local()
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(metrics.Records(agg.Metrics))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("merged metrics differ from the local run's:\n got %s\nwant %s", g, w)
	}
}

func metricNames(ms []metrics.Summary) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// postRun POSTs a scenario body to base's /v1/runs (plus query) and
// decodes the report, failing unless the daemon answers with status.
func postRun(t *testing.T, base string, body []byte, query string, status int) service.Report {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep service.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("POST /v1/runs%s: %s: %v", query, resp.Status, err)
	}
	if resp.StatusCode != status {
		t.Fatalf("POST /v1/runs%s: %s (%s), want %d", query, resp.Status, rep.Error, status)
	}
	return rep
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// metricValue reads one integer counter from base's /metrics.
func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s not exposed", name)
	return 0
}
