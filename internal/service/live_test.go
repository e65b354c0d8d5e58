package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"smallbuffers/internal/live"
	"smallbuffers/internal/scenario"
)

// windowScenarioBody is scenarioBody plus the windowed collectors, so
// live views carry merge-as-you-go window_load/goodput_window summaries.
func windowScenarioBody(name string, seeds, rounds, delayUS, window int) string {
	base := scenarioBody(name, seeds, rounds, delayUS)
	metrics := fmt.Sprintf(`"metrics": [
		{"name": "window_load", "params": {"window": %d}},
		{"name": "goodput_window", "params": {"window": %d}}
	],`, window, window)
	return strings.Replace(base, `"topology":`, metrics+` "topology":`, 1)
}

func getLive(t *testing.T, url, id string) (live.View, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/runs/" + id + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return live.View{}, resp.StatusCode
	}
	var v live.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v, resp.StatusCode
}

// TestLiveViewMidSweep is the tentpole acceptance at the service tier:
// mid-sweep, GET /v1/runs/{id}/live returns merged windowed summaries
// and progress; the per-run Prometheus gauges appear on /metrics for
// every run in flight, queued ones included; the attached poller leaves
// the results digest byte-identical to a local run; and a run evicted
// from the cache vanishes from /live.
func TestLiveViewMidSweep(t *testing.T) {
	// The cache holds the two runs below (6 + 2 cells); a third evicts
	// the colder.
	_, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: 2, CacheCells: 8})
	submit := func(body string) Report {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit = %d", resp.StatusCode)
		}
		return rep
	}
	body := windowScenarioBody("live-mid", 6, 60, 2000, 16)
	rep := submit(body)
	// With one worker, this run stays queued until the first finishes.
	queued := submit(scenarioBody("live-queued", 2, 40, 2000))

	// Poll until the view shows a mid-sweep state: running, some cells
	// done, some still to go, and the windowed summaries merged so far.
	deadline := time.Now().Add(30 * time.Second)
	var mid live.View
	for {
		v, code := getLive(t, ts.URL, rep.ID)
		if code != http.StatusOK {
			t.Fatalf("/live = %d", code)
		}
		if v.Status == StatusRunning && v.CellsDone >= 1 && v.CellsDone < v.CellsTotal {
			if _, ok := v.MetricByName("window_load"); ok {
				mid = v
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mid-sweep live view before deadline; last %+v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mid.CellsTotal != 6 {
		t.Errorf("cells_total = %d, want 6", mid.CellsTotal)
	}
	if mid.CellsInFlight < 1 || mid.CellsInFlight > 2 {
		t.Errorf("cells_in_flight = %d with 2 sweep workers", mid.CellsInFlight)
	}
	if p := mid.Progress(); p <= 0 || p >= 1000 {
		t.Errorf("mid-sweep progress = %d‰", p)
	}
	wl, _ := mid.MetricByName("window_load")
	if wl.Scalars["window"] != 16 || wl.Scalars["window_max"] <= 0 {
		t.Errorf("merged window_load scalars = %v", wl.Scalars)
	}
	gw, ok := mid.MetricByName("goodput_window")
	if !ok || gw.Scalars["window_delivered"] <= 0 {
		t.Errorf("merged goodput_window = %v %v", gw.Scalars, ok)
	}

	// The per-run gauges are exposed while the run is in flight.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, gauge := range []string{
		fmt.Sprintf("aqtserve_run_cells_total{run=%q} 6", rep.ID),
		fmt.Sprintf("aqtserve_run_cells_in_flight{run=%q}", rep.ID),
		fmt.Sprintf("aqtserve_run_window_occupancy_p99{run=%q}", rep.ID),
		fmt.Sprintf("aqtserve_run_drop_window_permille{run=%q}", rep.ID),
		fmt.Sprintf("aqtserve_run_cells_total{run=%q} 2", queued.ID),
	} {
		if !strings.Contains(string(prom), gauge) {
			t.Errorf("/metrics missing %s while in flight", gauge)
		}
	}

	// Let the run finish; the final view freezes and the served digest
	// matches a local run — the attached poller observed, not perturbed.
	var final Report
	for {
		r, err := http.Get(ts.URL + "/v1/runs/" + rep.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&final)
		r.Body.Close()
		if final.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local := agg.Digest(); final.ResultsDigest != local {
		t.Errorf("served digest %s ≠ local %s with live poller attached", final.ResultsDigest, local)
	}
	done, code := getLive(t, ts.URL, rep.ID)
	if code != http.StatusOK || done.Status != StatusDone || done.CellsDone != 6 || done.CellsInFlight != 0 {
		t.Errorf("final live view = %+v (%d)", done, code)
	}

	// Finished runs drop off the per-run gauges (cardinality stays
	// bounded by what's in flight).
	mresp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(prom), fmt.Sprintf("run=%q", rep.ID)) {
		t.Error("finished run still exposed on the per-run gauges")
	}

	// Once the queued run is done (polling it keeps it the warmer cache
	// entry), a third run overflows the cache and evicts the first: its
	// id and live view are gone, the warmer run's are not.
	for {
		v, code := getLive(t, ts.URL, queued.ID)
		if code != http.StatusOK {
			t.Fatalf("/live for the queued run = %d", code)
		}
		if v.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued run never finished: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, r := post(t, ts.URL, scenarioBody("live-evict", 1, 10, 0)); code != http.StatusOK || r.Status != StatusDone {
		t.Fatalf("evicting run = %d %+v", code, r)
	}
	// The waiting POST returns when the run's done channel closes, just
	// before the server adds it to the cache, so the eviction may lag.
	for {
		_, code := getLive(t, ts.URL, rep.ID)
		if code == http.StatusNotFound {
			break
		}
		if code != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("/live for the evicted run = %d, want 404", code)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := getLive(t, ts.URL, queued.ID); code != http.StatusOK {
		t.Errorf("/live for the cached run = %d, want 200", code)
	}

	// Unknown run → 404.
	if _, code := getLive(t, ts.URL, "nope"); code != http.StatusNotFound {
		t.Errorf("/live for unknown run = %d", code)
	}
}

// TestRunGaugesSortedByID pins the per-run gauge order: the server
// collects in-flight runs from a map, and /metrics lists them by run id
// whatever order they arrive in.
func TestRunGaugesSortedByID(t *testing.T) {
	var m promMetrics
	var out strings.Builder
	m.write(&out, snapshot{live: []live.View{
		{ID: "r1-b", Status: StatusRunning, CellsTotal: 2},
		{ID: "r1-a", Status: StatusQueued, CellsTotal: 1},
		{ID: "r1-c", Status: StatusQueued, CellsTotal: 3},
	}})
	runs := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if gauge, rest, ok := strings.Cut(line, `{run="`); ok {
			id, _, _ := strings.Cut(rest, `"`)
			runs[gauge] = append(runs[gauge], id)
		}
	}
	for _, gauge := range []string{"aqtserve_run_cells_in_flight", "aqtserve_run_cells_done", "aqtserve_run_cells_total"} {
		if got := strings.Join(runs[gauge], " "); got != "r1-a r1-b r1-c" {
			t.Errorf("%s lists runs %q, want \"r1-a r1-b r1-c\"", gauge, got)
		}
	}
}

// TestSlowStreamConsumerDoesNotBlock pins the slow-watcher contract: a
// stream client that never reads must not stall sweep workers, the
// /live view, or other watchers; the digest stays byte-identical to a
// local run; and the stalled handler's goroutine unwinds once the
// client goes away.
func TestSlowStreamConsumerDoesNotBlock(t *testing.T) {
	before := runtime.NumGoroutine()
	_, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: 2, SSEHeartbeat: -1})
	body := windowScenarioBody("live-stall", 6, 60, 2000, 16)

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A raw TCP client that sends the stream request and then never
	// reads: the kernel buffers fill and the handler's writes block.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/runs/%s/stream HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n", rep.ID)

	// The sweep still finishes promptly and /live stays responsive.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, code := getLive(t, ts.URL, rep.ID)
		if code != http.StatusOK {
			t.Fatalf("/live = %d with stalled watcher", code)
		}
		if v.Status == StatusDone {
			if v.CellsDone != 6 {
				t.Errorf("final view cells_done = %d", v.CellsDone)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep stalled behind a slow stream consumer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh, well-behaved watcher replays the whole finished stream.
	sresp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(replay), `"type":"cell"`); got != 6 {
		t.Errorf("replay carried %d cells, want 6", got)
	}

	// Digest-neutrality: stalled watcher or not, the records digest is
	// the local one.
	var final Report
	r, err := http.Get(ts.URL + "/v1/runs/" + rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&final)
	r.Body.Close()
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local := agg.Digest(); final.ResultsDigest != local {
		t.Errorf("digest with stalled watcher %s ≠ local %s", final.ResultsDigest, local)
	}

	// Hang up; the blocked handler goroutine must unwind.
	conn.Close()
	for {
		if runtime.NumGoroutine() <= before+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSSEHeartbeat injects a short heartbeat interval and expects
// keepalive comments while the stream idles between cells.
func TestSSEHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, SSEHeartbeat: 10 * time.Millisecond})
	body := scenarioBody("sse-heartbeat", 2, 2000, 500) // ~1s per cell

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+rep.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	br := bufio.NewReader(sresp.Body)
	heartbeats := 0
	deadline := time.Now().Add(10 * time.Second)
	for heartbeats < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("saw only %d heartbeats before deadline", heartbeats)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d heartbeats: %v", heartbeats, err)
		}
		if strings.HasPrefix(line, ": keepalive") {
			heartbeats++
		}
	}
	cancel() // abandon the stream; the pinned run keeps going (covered elsewhere)

	// NDJSON streams never carry SSE comments, whatever the interval.
	nresp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	ndjson, err := io.ReadAll(nresp.Body)
	nresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(ndjson), ": keepalive") {
		t.Error("NDJSON stream carried SSE keepalive comments")
	}
}

// TestDeliveredMeanMillis pins the integer per-mille summary field and
// the absence of its retired float alias.
func TestDeliveredMeanMillis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, rep := post(t, ts.URL, scenarioBody("delivered-millis", 3, 200, 0))
	if rep.Summary == nil {
		t.Fatalf("no summary: %+v", rep)
	}
	if rep.Summary.DeliveredMeanMillis <= 0 {
		t.Fatalf("delivered_mean_millis = %d", rep.Summary.DeliveredMeanMillis)
	}

	// Exactly one spelling on the wire: delivered_mean's one-release
	// deprecation window is over. The exact-key check matters —
	// "delivered_mean_millis" contains the old name as a substring.
	resp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"delivered_mean_millis"`) {
		t.Errorf("wire summary missing delivered_mean_millis:\n%s", raw)
	}
	if strings.Contains(string(raw), `"delivered_mean":`) {
		t.Errorf("retired delivered_mean still on the wire:\n%s", raw)
	}
}
