package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/sim"
)

// A test-only registered protocol with a per-round delay, so tests can
// pin runs in flight deterministically (cancellation, pool contention).
// Registration is process-global but scoped to this test binary.
func init() {
	err := registry.RegisterProtocol(registry.Protocol{
		Name:   "test-slow-fifo",
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

// scenarioBody renders a small sweep scenario: `seeds` cells of `rounds`
// rounds each, with an optional per-round delay driving the test-slow
// protocol.
func scenarioBody(name string, seeds, rounds, delayUS int) string {
	seedList := make([]string, seeds)
	for i := range seedList {
		seedList[i] = strconv.Itoa(i + 1)
	}
	proto := `{"name": "ppts"}`
	if delayUS > 0 {
		proto = fmt.Sprintf(`{"name": "test-slow-fifo", "params": {"delay_us": %d}}`, delayUS)
	}
	return fmt.Sprintf(`{
		"name": %q,
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": %s,
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": %d,
		"seeds": [%s]
	}`, name, proto, rounds, strings.Join(seedList, ", "))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// post submits a scenario and decodes the report. Errors are reported
// with t.Error (not Fatal) so the helper is safe from spawned
// goroutines; callers see status 0 on transport failure.
func post(t *testing.T, url, body string) (int, Report) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/runs: %v", err)
		return 0, Report{}
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Errorf("bad response body: %v", err)
		return resp.StatusCode, Report{}
	}
	return resp.StatusCode, rep
}

func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestSubmitMatchesLocalRunAndCaches is the core acceptance property:
// the service's results digest equals a local scenario run's digest, and
// a repeated POST is served from the cache without re-simulating.
func TestSubmitMatchesLocalRunAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	body := scenarioBody("match", 4, 300, 0)

	code, rep := post(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("POST = %d (%s)", code, rep.Error)
	}
	if rep.Cached {
		t.Error("first POST reported cached")
	}
	if rep.Status != StatusDone || rep.Summary == nil || rep.Summary.Failed > 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("report carries %d cells, want 4", len(rep.Cells))
	}

	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local := agg.Digest(); local != rep.ResultsDigest {
		t.Errorf("service digest %s ≠ local digest %s", rep.ResultsDigest, local)
	}
	wantDigest, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest != wantDigest {
		t.Errorf("scenario digest %s ≠ %s", rep.Digest, wantDigest)
	}

	cellsBefore := metricValue(t, ts.URL, "aqtserve_cells_completed_total")
	code, rep2 := post(t, ts.URL, body)
	if code != http.StatusOK || !rep2.Cached {
		t.Fatalf("repeat POST = %d cached=%v, want 200 cached", code, rep2.Cached)
	}
	if rep2.ResultsDigest != rep.ResultsDigest {
		t.Errorf("cached digest diverges: %s vs %s", rep2.ResultsDigest, rep.ResultsDigest)
	}
	if cellsAfter := metricValue(t, ts.URL, "aqtserve_cells_completed_total"); cellsAfter != cellsBefore {
		t.Errorf("cache hit re-simulated: cells %v → %v", cellsBefore, cellsAfter)
	}
	if cached := metricValue(t, ts.URL, "aqtserve_runs_cached_total"); cached != 1 {
		t.Errorf("runs_cached_total = %v, want 1", cached)
	}

	// A semantically identical respelling (plural axes) hits the same
	// cache entry: digests are canonical, not byte-based.
	respelled := strings.Replace(body, `"topology":`, `"topologies":`, 1)
	if _, rep3 := post(t, ts.URL, respelled); !rep3.Cached {
		t.Error("respelled scenario missed the canonical digest cache")
	}
}

// TestMetricScenarioServedMatchesLocal is the metrics acceptance gate at
// the service tier: a scenario selecting load_series/load_hist/latency
// produces the same results digest served (at several sweep-worker
// counts) as locally, the cell records carry the selected summaries, and
// the run summary carries the merged grid-wide distributions.
func TestMetricScenarioServedMatchesLocal(t *testing.T) {
	body := `{
		"name": "metrics-acceptance",
		"topology": {"name": "path", "params": {"n": 24}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 4}},
		"bound": {"rho": "1", "sigma": 2},
		"rounds": 200,
		"seeds": [1, 2, 3],
		"metrics": [{"name": "load_series"}, {"name": "load_hist"}, {"name": "latency"}]
	}`
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local := agg.Digest()

	for _, sweepWorkers := range []int{1, 3} {
		_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: sweepWorkers})
		code, rep := post(t, ts.URL, body)
		if code != http.StatusOK || rep.Summary == nil {
			t.Fatalf("POST (SweepWorkers=%d) = %d: %+v", sweepWorkers, code, rep)
		}
		if rep.ResultsDigest != local {
			t.Errorf("SweepWorkers=%d: served digest %s ≠ local %s", sweepWorkers, rep.ResultsDigest, local)
		}
		totalCount := 0
		for _, cell := range cellRecords(t, rep) {
			if len(cell.Metrics) != 3 {
				t.Fatalf("cell %d carries %d metric summaries, want 3", cell.Index, len(cell.Metrics))
			}
			lat, ok := cell.MetricByName("latency")
			if !ok || lat.Scalar("count") != cell.Delivered {
				t.Errorf("cell %d latency summary %v disagrees with delivered %d", cell.Index, lat.Scalars, cell.Delivered)
			}
			totalCount += lat.Scalar("count")
		}
		merged := map[string]bool{}
		for _, m := range rep.Summary.Metrics {
			merged[m.Name] = true
			if m.Name == "latency" {
				if m.Scalar("count") != totalCount {
					t.Errorf("summary latency count %d, cells sum to %d", m.Scalar("count"), totalCount)
				}
				if m.Hist == nil || m.Hist.Count != totalCount {
					t.Errorf("summary latency histogram not merged: %+v", m.Hist)
				}
			}
		}
		for _, name := range []string{"latency", "load_hist", "load_series"} {
			if !merged[name] {
				t.Errorf("summary metrics missing %s: %+v", name, rep.Summary.Metrics)
			}
		}
	}
}

// TestAcceptanceConcurrency is the ISSUE's race gate: ≥50 concurrent
// in-flight requests against a 4-worker pool, mixing fresh digests,
// cache joins, streaming clients, and mid-stream disconnects.
func TestAcceptanceConcurrency(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 1024})

	const distinct = 10
	const postsPer = 5 // 50 waiting submissions
	digests := make([][]string, distinct)
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		digests[i] = make([]string, postsPer)
		for j := 0; j < postsPer; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				body := scenarioBody(fmt.Sprintf("acc-%d", i), 3, 200+10*i, 0)
				code, rep := post(t, ts.URL, body)
				if code != http.StatusOK {
					t.Errorf("scenario %d post %d: status %d (%s)", i, j, code, rep.Error)
					return
				}
				digests[i][j] = rep.ResultsDigest
			}(i, j)
		}
	}

	// Streaming clients that disconnect mid-stream: their runs are
	// pinned (async submit), so walking away must not disturb them.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := scenarioBody(fmt.Sprintf("stream-%d", i), 6, 400, 200)
			resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var rep Report
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("async submit: status %d", resp.StatusCode)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+rep.ID+"/stream", nil)
			sresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer sresp.Body.Close()
			// Read one event, then hang up mid-stream.
			br := bufio.NewReader(sresp.Body)
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				t.Errorf("stream read: %v", err)
			}
			cancel()
		}(i)
	}

	// Submitters that hang up before their run finishes (client-abort
	// path): distinct digests, so aborting cancels the whole run.
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := scenarioBody(fmt.Sprintf("abort-%d", i), 4, 2000, 500)
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel()
			}()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				// The run may legitimately have finished before the abort.
				resp.Body.Close()
			}
		}(i)
	}

	wg.Wait()

	// Every post of the same scenario saw the same results digest.
	for i := range digests {
		for j := 1; j < postsPer; j++ {
			if digests[i][j] != digests[i][0] {
				t.Errorf("scenario %d: digest %d diverges: %s vs %s", i, j, digests[i][j], digests[i][0])
			}
		}
	}

	// The server is still healthy and consistent afterwards.
	if v := metricValue(t, ts.URL, "aqtserve_runs_in_flight"); v < 0 {
		t.Errorf("runs_in_flight went negative: %v", v)
	}
	code, rep := post(t, ts.URL, scenarioBody("post-storm", 2, 100, 0))
	if code != http.StatusOK || rep.Status != StatusDone {
		t.Errorf("post-storm submit failed: %d %+v", code, rep)
	}
}

// TestClientDisconnectCancelsRun pins the client-gone path: a synchronous
// submitter is the only watcher; hanging up cancels the run, frees the
// worker, and the digest is not poisoned — the next POST re-simulates.
func TestClientDisconnectCancelsRun(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	slow := scenarioBody("disconnect", 4, 5000, 1000) // ~20s if left alone

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(slow))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the run start
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("aborted request returned a response")
	}

	// The worker must come free promptly: a fresh fast scenario runs to
	// completion on the 1-worker pool well before the slow run would
	// have finished.
	done := make(chan Report, 1)
	go func() {
		_, rep := post(t, ts.URL, scenarioBody("after-disconnect", 2, 100, 0))
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Status != StatusDone {
			t.Fatalf("follow-up run: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot not released after client disconnect")
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, ts.URL, "aqtserve_runs_cancelled_total"); v < 1 {
		t.Errorf("runs_cancelled_total = %v, want ≥ 1", v)
	}

	// The cancelled digest is not served from cache: an async re-POST of
	// the same scenario gets a fresh 202 run, not a cached 200 partial.
	// (The cleanup's Close cancels it; we only care that it re-entered.)
	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("re-POST after cancel: %d, want 202 (fresh run)", resp.StatusCode)
	}
}

// TestStreamFollowsRun drives the NDJSON stream end to end: replayed
// records, live records, and the closing summary event. Every cell frame,
// spliced from the encoding publish made, is json.Marshal of its stream
// event, and CutCellFrame cuts the record's own encoding from it.
func TestStreamFollowsRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := scenarioBody("streamed", 5, 300, 100)

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var cells int
	var frames []string
	var summary *Report
	scn := bufio.NewScanner(sresp.Body)
	for scn.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(scn.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scn.Text(), err)
		}
		switch probe.Type {
		case "cell":
			cells++
			frames = append(frames, scn.Text())
		case "summary":
			var s struct {
				Report
			}
			if err := json.Unmarshal(scn.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			summary = &s.Report
		}
	}
	if err := scn.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 5 {
		t.Errorf("streamed %d cell events, want 5", cells)
	}
	if summary == nil || summary.Status != StatusDone || summary.ResultsDigest == "" {
		t.Errorf("summary event missing or wrong: %+v", summary)
	}

	// A second stream of the finished run replays everything instantly.
	sresp2, err := http.Get(ts.URL + "/v1/runs/" + rep.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(replay), `"type":"cell"`); got != 5 {
		t.Errorf("replayed stream carried %d cells, want 5", got)
	}
	for _, line := range strings.Split(string(replay), "\n") {
		if strings.HasPrefix(line, CellFramePrefix) {
			frames = append(frames, line)
		}
	}
	fresp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final Report
	err = json.NewDecoder(fresp.Body).Decode(&final)
	fresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		var ev streamEvent
		if err := json.Unmarshal([]byte(frame), &ev); err != nil || ev.Index < 0 || ev.Index >= len(final.Cells) {
			t.Fatalf("cell frame %s: %v", frame, err)
		}
		rec := cellRecords(t, final)[ev.Index]
		want, err := json.Marshal(streamEvent{Type: "cell", CellRecord: rec})
		if err != nil {
			t.Fatal(err)
		}
		if frame != string(want) {
			t.Errorf("cell %d's frame:\n %s\nwant\n %s", rec.Index, frame, want)
		}
		line, ok := CutCellFrame([]byte(frame))
		if want, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		if !ok || string(line) != string(want) {
			t.Errorf("cell %d: cut %s, want %s", rec.Index, line, want)
		}
	}
}

// streamEvent is the shape of one NDJSON/SSE cell frame: the record
// with a "type" field in front.
type streamEvent struct {
	Type string `json:"type"`
	harness.CellRecord
}

// TestSummarizeKindClash pins the tally's policy on two kinds under one
// collector name: the merged metrics are dropped and the rest of the
// summary kept. Its digest is the records digest, hashed from the
// encodings publish made.
func TestSummarizeKindClash(t *testing.T) {
	recs := []harness.CellRecord{
		{Index: 0, Cell: "a", MaxLoad: 2, Metrics: []metrics.Summary{{Name: "m", Kind: metrics.KindScalar, Scalars: map[string]int{"x": 1}}}},
		{Index: 1, Cell: "b", MaxLoad: 3, Metrics: []metrics.Summary{{Name: "m", Kind: metrics.KindHist, Hist: &metrics.HistRecord{}}}},
	}
	tl := tally{digest: harness.NewRecordsDigester()}
	for _, rec := range recs {
		tl.add(rec, harness.MarshalCanonical(rec))
	}
	sum := tl.summary(2)
	if sum.Metrics != nil || sum.Completed != 2 || sum.MaxLoadMax != 3 {
		t.Errorf("summary %+v, want no metrics, 2 cells completed, max load 3", sum)
	}
	if want := harness.RecordsDigest(recs); sum.ResultsDigest != want {
		t.Errorf("digest %s, want %s", sum.ResultsDigest, want)
	}
}

// TestStreamSSE asks for text/event-stream and gets SSE framing.
func TestStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, rep := post(t, ts.URL, scenarioBody("sse", 2, 100, 0))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+rep.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "event: cell\ndata: ") || !strings.Contains(string(data), "event: summary\ndata: ") {
		t.Errorf("missing SSE framing:\n%s", data)
	}
}

func TestEndpointsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Registry catalog.
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var cat registry.CatalogDesc
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cat.Protocols) == 0 || len(cat.Topologies) == 0 || len(cat.Adversaries) == 0 {
		t.Errorf("catalog incomplete: %+v", cat)
	}

	// Healthz.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(health), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, health)
	}

	// Invalid scenario → 400 with a useful error.
	code, rep := post(t, ts.URL, `{"protocol": {"name": "ptss"}}`)
	if code != http.StatusBadRequest || !strings.Contains(rep.Error, "") {
		t.Errorf("bad scenario: %d %+v", code, rep)
	}
	if code, _ := post(t, ts.URL, `not json`); code != http.StatusBadRequest {
		t.Errorf("non-JSON body: %d, want 400", code)
	}

	// Unknown run → 404.
	resp, err = http.Get(ts.URL + "/v1/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: %d, want 404", resp.StatusCode)
	}

	// List runs.
	post(t, ts.URL, scenarioBody("listed", 2, 50, 0))
	resp, err = http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs []Report `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Runs) == 0 {
		t.Error("run list empty after a submission")
	}
}

// TestHostileRateRejected posts a rate whose denominator is 2^62. Without
// a cap on ρ's denominator the scenario validated, and the random
// adversary's first round overflowed int64 and panicked, killing the
// daemon. The POST must get a 4xx, and the daemon must keep serving.
func TestHostileRateRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, rep := post(t, ts.URL, `{
		"topology": {"name": "path", "params": {"n": 8}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random"},
		"bound": {"rho": "1/4611686018427387904", "sigma": 2},
		"rounds": 10
	}`)
	if code < 400 || code >= 500 || !strings.Contains(rep.Error, "denominator") {
		t.Errorf("hostile rate: %d %+v, want a 4xx naming the denominator", code, rep)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the hostile rate: %d, want 200", resp.StatusCode)
	}
}

// TestHostileGridRejected posts grids whose cell indices overflow int: a
// shard ending past MaxInt (whichever word size int has), and axes whose
// product no slice can hold.
// Validate's offset+count and the grid's size once wrapped round, so both
// validated, were queued, and panicked when the worker expanded the grid,
// killing the daemon. It also posts two one-cell scenarios of 2·10⁹
// rounds, past the 2^24 cap on a cell's rounds; the greedykiller one once
// presized a schedule of about 40 GB before its first round. A lowerbound
// of m = 257, ℓ = 2 declares no rounds but dictates a horizon of 257³
// rounds, past the same cap. Each POST must get a 400, and the daemon
// must keep serving.
func TestHostileGridRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	axis := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 1)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	for _, tc := range []struct{ name, body, want string }{
		{"shard past MaxInt", `{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 1},
			"rounds": 10,
			"shard": {"offset": ` + strconv.Itoa(math.MaxInt) + `, "count": 1}
		}`, "exceeds"},
		{"grid past MaxInt", `{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 1},
			"rounds": ` + axis(20000) + `,
			"bandwidths": ` + axis(20000) + `,
			"seeds": ` + axis(20000) + `
		}`, "cells"},
		{"path over 2e9 rounds", `{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 1},
			"rounds": 2000000000
		}`, "exceeds the limit of 16777216 rounds"},
		{"greedykiller over 2e9 rounds", `{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "greedykiller"},
			"bound": {"rho": "3/4", "sigma": 1},
			"rounds": 2000000000
		}`, "exceeds the limit of 16777216 rounds"},
		{"lowerbound horizon past the cap", `{
			"protocol": {"name": "ppts"},
			"adversary": {"name": "lowerbound", "params": {"m": 257, "ell": 2}},
			"bound": {"rho": "1", "sigma": 1}
		}`, "horizon 16974593 exceeds the limit of 16777216 rounds"},
	} {
		code, rep := post(t, ts.URL, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(rep.Error, tc.want) {
			t.Errorf("%s: %d %+v, want a 400 containing %q", tc.name, code, rep, tc.want)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("%s: the daemon stopped serving: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz after %s: %d, want 200", tc.name, resp.StatusCode)
		}
	}
}

// TestCacheEviction bounds the cache at a few cells and checks old
// digests re-simulate after eviction.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheCells: 4})
	a := scenarioBody("evict-a", 3, 50, 0) // 3 cells
	b := scenarioBody("evict-b", 3, 60, 0) // 3 cells; displaces a

	_, repA := post(t, ts.URL, a)
	if repA.Status != StatusDone {
		t.Fatalf("a: %+v", repA)
	}
	post(t, ts.URL, b)
	_, repA2 := post(t, ts.URL, a)
	if repA2.Cached {
		t.Error("evicted digest still served from cache")
	}
	if repA2.ResultsDigest != repA.ResultsDigest {
		t.Errorf("re-simulated run digests differently: %s vs %s", repA2.ResultsDigest, repA.ResultsDigest)
	}
	// The evicted first run's id is gone from the index.
	resp, err := http.Get(ts.URL + "/v1/runs/" + repA.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted run id still resolves: %d", resp.StatusCode)
	}
}

// TestQueueFullRejects saturates a 1-worker, 1-deep queue: the third
// submission gets 503, the started counter stays monotonic (the
// rejected run is finished as cancelled, not un-counted), and the
// in-flight gauge returns to zero.
func TestQueueFullRejects(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	submitAsync := func(name string) (int, Report) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
			strings.NewReader(scenarioBody(name, 2, 2000, 500)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}

	code, repA := submitAsync("qf-a")
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	// Wait until A occupies the worker, so B reliably sits in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + repA.ID)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if rep.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run A never started: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := submitAsync("qf-b"); code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202 (queued)", code)
	}
	code, rep := submitAsync("qf-c")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third submit = %d (%+v), want 503", code, rep)
	}

	if v := metricValue(t, ts.URL, "aqtserve_runs_started_total"); v != 3 {
		t.Errorf("runs_started_total = %v, want 3 (monotonic, rejection included)", v)
	}
	if v := metricValue(t, ts.URL, "aqtserve_runs_cancelled_total"); v < 1 {
		t.Errorf("runs_cancelled_total = %v, want ≥ 1 (the rejected run)", v)
	}

	svc.Close() // cancels A and B
	if v := metricValue(t, ts.URL, "aqtserve_runs_in_flight"); v != 0 {
		t.Errorf("runs_in_flight = %v after close, want 0", v)
	}
}

// TestDrainAndClose: drain waits for in-flight runs; close cancels
// everything and the server refuses new work.
func TestDrainAndClose(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
		strings.NewReader(scenarioBody("drain", 3, 200, 100)))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/runs/" + rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	var after Report
	json.NewDecoder(resp.Body).Decode(&after)
	resp.Body.Close()
	if after.Status != StatusDone {
		t.Errorf("drained run status %q, want done", after.Status)
	}

	svc.Close()
	code, _ := post(t, ts.URL, scenarioBody("late", 1, 10, 0))
	if code != http.StatusServiceUnavailable {
		t.Errorf("closed server accepted work: %d", code)
	}
}
