package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"smallbuffers/internal/scenario"
)

// indexed returns the id of the run the body index holds for body, and
// the index's size.
func indexed(svc *Server, body string) (id string, size int) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if r, ok := svc.byBody[sha256.Sum256([]byte(body))]; ok {
		id = r.id
	}
	return id, len(svc.byBody)
}

// localDigest is the results digest of a local run of body.
func localDigest(t *testing.T, body string) string {
	t.Helper()
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return agg.Digest()
}

// TestBodyIndex covers the answer a byte-identical resubmission gets
// without parsing, and every way back to the full path: a draining daemon
// parses every body, a whitespace variant is parsed and still hits, an
// evicted or cancelled digest runs again and reproduces its results
// digest, and the index holds one entry per run the cache still holds.
func TestBodyIndex(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, CacheCells: 4})
	a := scenarioBody("index-a", 3, 50, 0) // 3 cells
	b := scenarioBody("index-b", 3, 60, 0) // 3 cells; displaces a
	want := localDigest(t, a)

	_, first := post(t, ts.URL, a)
	if first.Status != StatusDone || first.Cached || first.ResultsDigest != want {
		t.Fatalf("first POST: %+v, want a fresh run with results digest %s", first, want)
	}
	if id, size := indexed(svc, a); id != first.ID || size != 1 {
		t.Fatalf("index holds %q (%d entries), want %q alone", id, size, first.ID)
	}
	_, hit := post(t, ts.URL, a)
	if !hit.Cached || hit.ID != first.ID || hit.ResultsDigest != want {
		t.Errorf("resubmission: %+v, want a hit on %s", hit, first.ID)
	}

	// A draining daemon answers as it did before the index: a malformed
	// body gets a final 400 and an indexed one a retryable 503.
	svc.mu.Lock()
	svc.draining++
	svc.mu.Unlock()
	if code, _ := post(t, ts.URL, "{"); code != http.StatusBadRequest {
		t.Errorf("malformed body while draining: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL, a); code != http.StatusServiceUnavailable {
		t.Errorf("indexed body while draining: %d, want 503", code)
	}
	svc.mu.Lock()
	svc.draining--
	svc.mu.Unlock()

	// A whitespace variant names the same digest only once parsed: it
	// hits the cached run and is not indexed.
	variant := " " + strings.ReplaceAll(a, "\n", "\n ")
	_, vhit := post(t, ts.URL, variant)
	if !vhit.Cached || vhit.ID != first.ID {
		t.Errorf("whitespace variant: %+v, want a hit on %s", vhit, first.ID)
	}
	if id, size := indexed(svc, variant); id != "" || size != 1 {
		t.Errorf("the variant is indexed (%q, %d entries)", id, size)
	}

	// Evicting the run drops its index entry; the body then runs again.
	if _, rep := post(t, ts.URL, b); rep.Status != StatusDone {
		t.Fatalf("b: %+v", rep)
	}
	if id, size := indexed(svc, a); id != "" || size != 1 {
		t.Errorf("an evicted run is still indexed (%q, %d entries)", id, size)
	}
	_, again := post(t, ts.URL, a)
	if again.Cached || again.ID == first.ID || again.ResultsDigest != want {
		t.Errorf("after eviction: %+v, want a fresh run with results digest %s", again, want)
	}
	svc.mu.Lock()
	if len(svc.byBody) != svc.cache.len() {
		t.Errorf("index has %d entries for %d cached runs", len(svc.byBody), svc.cache.len())
	}
	svc.mu.Unlock()
}

// TestBodyIndexCancelledAndInFlight checks that a body whose run was
// cancelled runs again, and that a body whose run is in flight joins it.
func TestBodyIndexCancelledAndInFlight(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	slow := scenarioBody("index-slow", 1, 150, 2000) // about 300 ms
	want := localDigest(t, slow)
	submit := func() Report {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(slow))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST ?wait=0 = %d (%v)", resp.StatusCode, err)
		}
		return rep
	}

	cancelled := submit()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+cancelled.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	svc.mu.Lock()
	r := svc.runs[cancelled.ID]
	svc.mu.Unlock()
	<-r.done
	if r.report().Status != StatusCancelled {
		t.Fatalf("run %s was not cancelled: %+v", cancelled.ID, r.report())
	}

	// The cancelled run is still indexed, but its digest is released: the
	// body runs again, pinned, and a synchronous resubmission joins it.
	pinned := submit()
	if pinned.ID == cancelled.ID {
		t.Fatalf("the cancelled run %s was served again", cancelled.ID)
	}
	joinedBefore := metricValue(t, ts.URL, "aqtserve_runs_joined_total")
	_, joined := post(t, ts.URL, slow)
	if joined.ID != pinned.ID || joined.Cached || joined.ResultsDigest != want {
		t.Errorf("resubmission during the run: %+v, want run %s with results digest %s", joined, pinned.ID, want)
	}
	if got := metricValue(t, ts.URL, "aqtserve_runs_joined_total"); got != joinedBefore+1 {
		t.Errorf("runs_joined_total %v → %v, want one join", joinedBefore, got)
	}
	if id, _ := indexed(svc, slow); id != pinned.ID {
		t.Errorf("index holds %q, want the run %s", id, pinned.ID)
	}
}
