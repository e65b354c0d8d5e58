package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/service"
)

const dashScenario = `{
	"name": "dash-sweep",
	"topology": {"name": "path", "params": {"n": 16}},
	"protocol": {"name": "ppts"},
	"adversary": {"name": "random", "params": {"d": 2}},
	"bound": {"rho": "1/2", "sigma": 2},
	"rounds": 40,
	"seeds": [1, 2],
	"metrics": [{"name": "window_load", "params": {"window": 8}}]
}`

func startService(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, SweepWorkers: 2})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// TestDashboardRunMode drives the proxy handlers against a real daemon:
// /api/live wraps the run's live view, /api/stream relays the SSE cell
// stream, and / serves the embedded page.
func TestDashboardRunMode(t *testing.T) {
	ts := startService(t)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(dashScenario))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if report.ID == "" {
		t.Fatal("no run id in report")
	}

	d := &dashboard{runURL: ts.URL + "/v1/runs/" + report.ID, client: &http.Client{}}

	rec := httptest.NewRecorder()
	d.handleIndex(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !strings.Contains(rec.Body.String(), "aqtviz") {
		t.Error("index does not serve the embedded dashboard")
	}

	rec = httptest.NewRecorder()
	d.handleLive(rec, httptest.NewRequest(http.MethodGet, "/api/live", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/live: %d: %s", rec.Code, rec.Body.String())
	}
	var live struct {
		Mode string `json:"mode"`
		Run  struct {
			ID         string `json:"id"`
			CellsTotal int    `json:"cells_total"`
			CellsDone  int    `json:"cells_done"`
			Metrics    []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		} `json:"run"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatalf("decoding /api/live: %v\n%s", err, rec.Body.String())
	}
	if live.Mode != "run" || live.Run.ID != report.ID || live.Run.CellsTotal != 2 || live.Run.CellsDone != 2 {
		t.Errorf("live view = %+v", live)
	}
	found := false
	for _, m := range live.Run.Metrics {
		found = found || m.Name == "window_load"
	}
	if !found {
		t.Errorf("window_load missing from live metrics: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	d.handleStream(rec, httptest.NewRequest(http.MethodGet, "/api/stream", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/stream: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content-type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: cell") || !strings.Contains(body, "event: summary") {
		t.Errorf("stream proxy missing cell/summary events:\n%s", body)
	}
}

func TestDashboardFleetMode(t *testing.T) {
	ts := startService(t)
	d := &dashboard{
		fleet:  sb.FleetConfig{Endpoints: []string{strings.TrimPrefix(ts.URL, "http://")}},
		client: &http.Client{},
	}
	rec := httptest.NewRecorder()
	d.handleLive(rec, httptest.NewRequest(http.MethodGet, "/api/live", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/live: %d: %s", rec.Code, rec.Body.String())
	}
	var live struct {
		Mode  string `json:"mode"`
		Fleet struct {
			Daemons []struct {
				Endpoint string `json:"endpoint"`
			} `json:"daemons"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatal(err)
	}
	if live.Mode != "fleet" || len(live.Fleet.Daemons) != 1 {
		t.Errorf("fleet view = %+v", live)
	}

	// No single stream exists fleet-wide; the page just polls.
	rec = httptest.NewRecorder()
	d.handleStream(rec, httptest.NewRequest(http.MethodGet, "/api/stream", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("fleet /api/stream = %d, want 404", rec.Code)
	}
}

func TestServeFlagErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-serve", ":0", "-demo"}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("-serve -demo: %v", err)
	}
	if err := run(ctx, []string{"-run", "http://x/v1/runs/y"}); err == nil {
		t.Error("-run without -serve accepted")
	}
	if err := run(ctx, []string{"-fleet", "a:1"}); err == nil {
		t.Error("-fleet without -serve accepted")
	}
	if err := runServe(ctx, "127.0.0.1:0", "", "", io.Discard); err == nil {
		t.Error("-serve without a watch target accepted")
	}
	if err := runServe(ctx, "127.0.0.1:0", "http://x", "a:1", io.Discard); err == nil {
		t.Error("-run with -fleet accepted")
	}
}

// TestParseEndpoints checks the -fleet operand as the dashboard reads it:
// the shared grammar skips blank entries and comments, and runServe
// refuses an empty list or a missing fleet file before it listens.
func TestParseEndpoints(t *testing.T) {
	eps, err := sb.ParseFleetEndpoints("a:1, b:2,,# c")
	if err != nil || len(eps) != 2 || eps[0] != "a:1" || eps[1] != "b:2" {
		t.Errorf("ParseFleetEndpoints = %v, %v", eps, err)
	}
	ctx := context.Background()
	if err := runServe(ctx, "127.0.0.1:0", "", ",,", io.Discard); err == nil {
		t.Error("empty list accepted")
	}
	if err := runServe(ctx, "127.0.0.1:0", "", "@/nonexistent", io.Discard); err == nil {
		t.Error("missing fleet file accepted")
	}
}
