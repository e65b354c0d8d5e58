package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"smallbuffers/internal/live"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/service"
)

// runs lists the daemon's known runs (GET /v1/runs).
func (c *client) runs(ctx context.Context) ([]service.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var wire struct {
		Runs []service.Report `json:"runs"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("decoding run list: %w", err)
	}
	return wire.Runs, nil
}

// liveView fetches one run's live snapshot (GET /v1/runs/{id}/live).
func (c *client) liveView(ctx context.Context, runID string) (live.View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+runID+"/live", nil)
	if err != nil {
		return live.View{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return live.View{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return live.View{}, decodeError(resp)
	}
	var v live.View
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&v); err != nil {
		return live.View{}, fmt.Errorf("decoding live view: %w", err)
	}
	return v, nil
}

// DaemonLive is one daemon's contribution to a fleet snapshot: its
// in-flight runs' live views, or the error that made it unreachable.
// Unreachable daemons are data, not failures — a fleet monitor keeps
// rendering the healthy rest.
type DaemonLive struct {
	Endpoint string      `json:"endpoint"`
	Err      string      `json:"error,omitempty"`
	Runs     []live.View `json:"runs,omitempty"`
}

// FleetLive is the merged fleet-wide progress/occupancy view: per-daemon
// in-flight runs plus aggregates folded across every one of them —
// cells summed, rates summed, and the metric summaries folded under
// metrics.Fold (the same rules as final reports), so the fleet's
// recent-window occupancy reads like a single run's.
type FleetLive struct {
	Daemons           []DaemonLive      `json:"daemons"`
	RunsInFlight      int               `json:"runs_in_flight"`
	CellsTotal        int               `json:"cells_total"`
	CellsDone         int               `json:"cells_done"`
	CellsInFlight     int               `json:"cells_in_flight"`
	CellsPerSecMillis int64             `json:"cells_per_sec_millis"`
	Metrics           []metrics.Summary `json:"metrics,omitempty"`
}

// Progress returns fleet-wide completion in per-mille (0 when no cells
// are known).
func (f *FleetLive) Progress() int {
	if f.CellsTotal == 0 {
		return 0
	}
	return f.CellsDone * 1000 / f.CellsTotal
}

// LiveSnapshot polls every daemon's run list and /live views and merges
// them into one fleet-wide snapshot. Only queued/running runs are
// polled — finished runs linger in daemon caches indefinitely and are
// not "live". Daemons are visited in configured order and runs within a
// daemon arrive sorted, so the snapshot's shape is stable poll to poll;
// per-daemon errors are recorded in the snapshot rather than failing it.
// Endpoints naming the same daemon fail it: their runs would count twice.
func LiveSnapshot(ctx context.Context, cfg Config) (*FleetLive, error) {
	if err := checkEndpoints(cfg.Endpoints); err != nil {
		return nil, err
	}
	snap := &FleetLive{}
	var fold metrics.Fold
	for _, ep := range cfg.Endpoints {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := DaemonLive{Endpoint: ep}
		c := newClient(ep)
		reports, err := c.runs(ctx)
		if err != nil {
			d.Err = err.Error()
			snap.Daemons = append(snap.Daemons, d)
			continue
		}
		for _, rep := range reports {
			if rep.Status != service.StatusQueued && rep.Status != service.StatusRunning {
				continue
			}
			v, err := c.liveView(ctx, rep.ID)
			if err != nil {
				// The run may have finished or been evicted between the
				// list and the poll; skip it rather than distorting the
				// aggregate with an error placeholder.
				continue
			}
			d.Runs = append(d.Runs, v)
			snap.RunsInFlight++
			snap.CellsTotal += v.CellsTotal
			snap.CellsDone += v.CellsDone
			snap.CellsInFlight += v.CellsInFlight
			snap.CellsPerSecMillis += v.CellsPerSecMillis
			// Runs fold as cells would, numbered in poll order.
			fold.Add(snap.RunsInFlight, v.Metrics...)
		}
		snap.Daemons = append(snap.Daemons, d)
	}
	if fold.Err() == nil {
		snap.Metrics = metrics.Records(fold.Map())
	}
	return snap, nil
}

// LiveWatch polls LiveSnapshot every interval, invoking fn with each
// snapshot, until fn returns false or ctx is cancelled. Pacing flows
// through the injected Clock, so tests drive the poll schedule
// deterministically.
func LiveWatch(ctx context.Context, cfg Config, interval time.Duration, fn func(*FleetLive) bool) error {
	cfg = cfg.withDefaults()
	if interval <= 0 {
		interval = time.Second
	}
	for {
		snap, err := LiveSnapshot(ctx, cfg)
		if err != nil {
			return err
		}
		if !fn(snap) {
			return nil
		}
		if err := cfg.Clock.Sleep(ctx, interval); err != nil {
			return err
		}
	}
}
