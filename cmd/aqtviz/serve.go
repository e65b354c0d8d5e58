// The -serve mode: a live web dashboard over the observation tier.
//
//	aqtviz -serve :8080 -run http://localhost:9000/v1/runs/r-000001
//	aqtviz -serve :8080 -fleet localhost:9000,localhost:9001
//
// The dashboard is a single embedded HTML page (stdlib only — no
// frameworks, no CDN fetches) that polls this process's /api/live proxy
// and, in single-run mode, follows /api/stream — an SSE proxy onto the
// daemon's /v1/runs/{id}/stream. Everything it shows comes from the
// strictly observational /live views, so leaving a dashboard open
// cannot perturb execution order or results digests.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	sb "smallbuffers"
)

//go:embed dashboard.html
var dashboardHTML []byte

// dashboard proxies one run's (or one fleet's) live views to the
// embedded page. Exactly one of runURL / fleet is set.
type dashboard struct {
	runURL string // base run URL: http://host:port/v1/runs/<id>
	fleet  sb.FleetConfig
	client *http.Client
}

func runServe(ctx context.Context, addr, runURL, fleetArg string, out io.Writer) error {
	d := &dashboard{client: &http.Client{}}
	switch {
	case runURL != "" && fleetArg != "":
		return fmt.Errorf("-run and -fleet are mutually exclusive")
	case runURL != "":
		u := strings.TrimSuffix(runURL, "/")
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		d.runURL = u
	case fleetArg != "":
		eps, err := sb.ParseFleetEndpoints(fleetArg)
		if err != nil {
			return err
		}
		d.fleet = sb.FleetConfig{Endpoints: eps}
	default:
		return fmt.Errorf("-serve needs -run URL or -fleet endpoints to watch")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", d.handleIndex)
	mux.HandleFunc("GET /api/live", d.handleLive)
	mux.HandleFunc("GET /api/stream", d.handleStream)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(out, "aqtviz: dashboard on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	case err := <-errc:
		return err
	}
}

func (d *dashboard) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

// handleLive answers the page's poll: in single-run mode a proxied copy
// of the daemon's /live view, in fleet mode a freshly merged
// fleet-wide snapshot. Both are wrapped so the page can tell the modes
// apart without configuration.
func (d *dashboard) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if d.runURL == "" {
		snap, err := sb.FleetLiveSnapshot(r.Context(), d.fleet)
		if err != nil {
			writeJSONError(w, http.StatusBadGateway, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"mode": "fleet", "fleet": snap})
		return
	}
	view, status, err := d.fetchJSON(r.Context(), d.runURL+"/live")
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, err)
		return
	}
	if status != http.StatusOK {
		writeJSONError(w, status, fmt.Errorf("daemon answered %d", status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"mode": "run", "run": view})
}

func (d *dashboard) fetchJSON(ctx context.Context, url string) (json.RawMessage, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

// handleStream proxies the daemon's SSE stream to the page, flushing
// event by event. Fleet mode has no single stream to follow; the page
// falls back to polling alone.
func (d *dashboard) handleStream(w http.ResponseWriter, r *http.Request) {
	if d.runURL == "" {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("no SSE stream in fleet mode"))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, d.runURL+"/stream", nil)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, err)
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := d.client.Do(req)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		writeJSONError(w, resp.StatusCode, fmt.Errorf("daemon answered %d", resp.StatusCode))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
