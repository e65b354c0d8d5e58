package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
)

// TestReadyzDistinctFromHealthz drives the readiness states the fleet
// coordinator keys on: ready when idle, 503+retryable while a drain is
// in flight, and back to ready once the drain completes — with /healthz
// reporting live throughout.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	get := func(path string) (int, apiError) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", code)
	}

	// Pin a slow run, start a drain, and observe the not-ready window.
	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
		strings.NewReader(scenarioBody("readyz-slow", 1, 2000, 500)))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get("/readyz")
		if code == http.StatusServiceUnavailable {
			if !body.Retryable {
				t.Fatalf("draining /readyz body not retryable: %+v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never went unready during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A submission during the drain is refused with the retryable shape
	// and a Retry-After hint.
	sresp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(scenarioBody("readyz-during-drain", 1, 10, 0)))
	if err != nil {
		t.Fatal(err)
	}
	var se apiError
	json.NewDecoder(sresp.Body).Decode(&se)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable || !se.Retryable {
		t.Errorf("submit during drain = %d %+v, want retryable 503", sresp.StatusCode, se)
	}
	if sresp.Header.Get("Retry-After") == "" {
		t.Error("submit during drain missing Retry-After")
	}
	// Liveness is unaffected.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain != 200")
	}

	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("post-drain /readyz != 200")
	}
}

// TestCancelEndpoint exercises DELETE /v1/runs/{id}: a running run's
// stream drains its completed cells and ends with a cancelled summary,
// the cancel is idempotent, and unknown ids 404.
func TestCancelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	del := func(id string) (int, Report) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep Report
		json.NewDecoder(resp.Body).Decode(&rep)
		return resp.StatusCode, rep
	}

	if code, _ := del("nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown id = %d, want 404", code)
	}

	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
		strings.NewReader(scenarioBody("cancel-me", 4, 3000, 300)))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()

	// Attach a stream first, so we can watch the cancellation land.
	sresp, err := http.Get(ts.URL + "/v1/runs/" + rep.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	if code, _ := del(rep.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running = %d, want 202", code)
	}

	var summary struct {
		Type string `json:"type"`
		Report
	}
	sawSummary := false
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad stream line: %v: %s", err, sc.Text())
		}
		if probe.Type == "summary" {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
		}
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary event")
	}
	if summary.Status != StatusCancelled {
		t.Errorf("cancelled run's summary status = %q, want %q", summary.Status, StatusCancelled)
	}

	// Idempotent: a second DELETE reports the sealed state with 200.
	code, rep2 := del(rep.ID)
	if code != http.StatusOK || rep2.Status != StatusCancelled {
		t.Errorf("second DELETE = %d %q, want 200 cancelled", code, rep2.Status)
	}
}

// TestShardedSubmissions splits one grid into shards, submits each as
// its own scenario, and requires the merged cell records to reproduce
// the unsharded run's results digest — the service-level form of the
// fleet merge invariant.
func TestShardedSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, SweepWorkers: 2})

	whole := scenarioBody("shard-whole", 6, 80, 0)
	_, wholeRep := post(t, ts.URL, whole)
	if wholeRep.Status != StatusDone || wholeRep.Summary == nil {
		t.Fatalf("whole run: %+v", wholeRep)
	}

	parent, err := scenario.Parse([]byte(whole))
	if err != nil {
		t.Fatal(err)
	}
	total, err := parent.GridSize()
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("grid = %d cells, want 6", total)
	}

	weights, err := parent.CellWeights()
	if err != nil {
		t.Fatal(err)
	}
	var recs []harness.CellRecord
	seen := map[string]bool{}
	for _, rng := range harness.PartitionRangesWeighted([]harness.IndexRange{{Lo: 0, Hi: total}}, weights, 3) {
		sub, err := parent.Slice(rng.Lo, rng.Count())
		if err != nil {
			t.Fatal(err)
		}
		body, err := sub.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, rep := post(t, ts.URL, string(body))
		if rep.Status != StatusDone || rep.Summary == nil {
			t.Fatalf("shard %v: %+v", rng, rep)
		}
		if rep.Summary.Requested != rng.Count() {
			t.Errorf("shard %v requested %d cells, want %d", rng, rep.Summary.Requested, rng.Count())
		}
		if seen[rep.Digest] {
			t.Errorf("shard %v digest %s collides", rng, rep.Digest)
		}
		seen[rep.Digest] = true
		for _, cr := range rep.Cells {
			if cr.Index < rng.Lo || cr.Index >= rng.Hi {
				t.Errorf("shard %v returned out-of-range cell %d", rng, cr.Index)
			}
		}
		recs = append(recs, rep.Cells...)
	}
	if got := harness.RecordsDigest(harness.RecordsSorted(recs)); got != wholeRep.ResultsDigest {
		t.Errorf("merged shard digest %s, want %s", got, wholeRep.ResultsDigest)
	}
}

// TestCellSpanMatchesCellsToRun: a submission's requested count and its
// CacheDir span, read from the scenario's grid size and shard, are what
// expanding the grid gives, on every pinned file and on slices of each.
func TestCellSpanMatchesCellsToRun(t *testing.T) {
	var files []string
	for _, dir := range []string{"scenarios", "experiments"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) != 30 {
		t.Fatalf("%d pinned files, want 30", len(files))
	}
	for _, f := range files {
		sc, err := scenario.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		total, err := sc.GridSize()
		if err != nil {
			t.Fatal(err)
		}
		subs := []*scenario.Scenario{sc}
		for _, sl := range [][2]int{{0, 1}, {total - 1, 1}, {total / 3, (total - total/3 + 1) / 2}} {
			sub, err := sc.Slice(sl[0], sl[1])
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		for _, sub := range subs {
			span, err := cellSpan(sub)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sub.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			cells, err := sw.CellsToRun()
			if err != nil {
				t.Fatal(err)
			}
			if span.Count() != len(cells) || span.Lo != cells[0].Index || span.Hi != cells[len(cells)-1].Index+1 {
				t.Errorf("%s shard %+v: span %v, the expanded grid runs %d cells from %d",
					f, sub.Shard, span, len(cells), cells[0].Index)
			}
		}
	}
}

// TestQueueFullIsRetryable pins the wire shape of the saturation error:
// retryable=true plus a Retry-After header.
func TestQueueFullIsRetryable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	submit := func(name string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
			strings.NewReader(scenarioBody(name, 2, 2000, 500)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := submit("retryable-a")
	var repA Report
	json.NewDecoder(first.Body).Decode(&repA)
	first.Body.Close()
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
	submit("retryable-b").Body.Close() // fills the queue

	var reject *http.Response
	for i := 0; ; i++ {
		reject = submit(fmt.Sprintf("retryable-c%d", i))
		if reject.StatusCode == http.StatusServiceUnavailable {
			break
		}
		reject.Body.Close()
		if i > 3 {
			t.Fatal("queue never saturated")
		}
	}
	defer reject.Body.Close()
	var e apiError
	json.NewDecoder(reject.Body).Decode(&e)
	if !e.Retryable {
		t.Errorf("queue-full body not retryable: %+v", e)
	}
	if !strings.Contains(e.Error, "queue full") {
		t.Errorf("queue-full error text: %q", e.Error)
	}
	if reject.Header.Get("Retry-After") == "" {
		t.Error("queue-full response missing Retry-After")
	}
}
