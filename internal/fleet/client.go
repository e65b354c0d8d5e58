package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/service"
)

// daemonError is a structured failure from one daemon. Retryable mirrors
// the service's wire flag: true means back off and retry against the
// same daemon (queue saturation, drain), false means the request itself
// is doomed there (bad scenario, hard shutdown).
type daemonError struct {
	status     int
	msg        string
	retryable  bool
	retryAfter time.Duration
}

func (e *daemonError) Error() string {
	return fmt.Sprintf("daemon returned %d: %s", e.status, e.msg)
}

// decodeError turns a non-2xx response into a daemonError, honouring the
// service's structured JSON body and Retry-After header when present.
func decodeError(resp *http.Response) *daemonError {
	e := &daemonError{status: resp.StatusCode}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var wire struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	if json.Unmarshal(body, &wire) == nil && wire.Error != "" {
		e.msg, e.retryable = wire.Error, wire.Retryable
	} else {
		e.msg = strings.TrimSpace(string(body))
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.retryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// client talks to one aqtserve daemon. It is stateless beyond the base
// URL; the coordinator owns health and backoff.
type client struct {
	base string // e.g. "http://host:port"
	http *http.Client
}

func newClient(endpoint string) *client {
	// No overall request timeout: run streams are long-lived by design.
	// Cancellation flows through the request context.
	return &client{base: baseURL(endpoint), http: &http.Client{}}
}

// baseURL normalises an endpoint to the daemon's base URL: "host:port"
// gains an http:// scheme and trailing slashes go, so "a:1" and
// "http://a:1/" name one daemon.
func baseURL(endpoint string) string {
	if !strings.Contains(endpoint, "://") {
		endpoint = "http://" + endpoint
	}
	return strings.TrimRight(endpoint, "/")
}

// checkEndpoints rejects an empty endpoint list and endpoints that name
// the same daemon: a daemon listed twice would be dispatched to and
// polled twice, and a snapshot would count its runs and cells twice.
func checkEndpoints(endpoints []string) error {
	if len(endpoints) == 0 {
		return errors.New("fleet: no endpoints")
	}
	seen := make(map[string]string, len(endpoints))
	for _, ep := range endpoints {
		base := baseURL(ep)
		if prev, ok := seen[base]; ok {
			return fmt.Errorf("fleet: endpoints %q and %q name the same daemon", prev, ep)
		}
		seen[base] = ep
	}
	return nil
}

// ParseEndpoints expands a -fleet operand into an endpoint list: a
// comma-separated list, or @file with one endpoint per line. Blank
// entries and #-comments are skipped; an empty list and endpoints naming
// the same daemon are errors.
func ParseEndpoints(arg string) ([]string, error) {
	var raw []string
	if name, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("fleet file: %w", err)
		}
		raw = strings.Split(string(data), "\n")
	} else {
		raw = strings.Split(arg, ",")
	}
	var eps []string
	for _, line := range raw {
		if ep := strings.TrimSpace(line); ep != "" && !strings.HasPrefix(ep, "#") {
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("no endpoints in -fleet %q", arg)
	}
	return eps, checkEndpoints(eps)
}

// submit POSTs a scenario asynchronously. A 202 returns the daemon's
// run id to stream from; a 200 means the daemon already holds the
// finished run (digest cache hit) and returns its complete report
// instead — no stream needed.
func (c *client) submit(ctx context.Context, body []byte) (string, *service.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs?wait=0", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var rep service.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return "", nil, fmt.Errorf("decoding submit response: %w", err)
		}
		if rep.ID == "" {
			return "", nil, fmt.Errorf("submit response carries no run id")
		}
		return rep.ID, nil, nil
	case http.StatusOK:
		var rep service.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return "", nil, fmt.Errorf("decoding cached report: %w", err)
		}
		return "", &rep, nil
	default:
		return "", nil, decodeError(resp)
	}
}

// A shard stream's scanner starts with a buffer of streamBufInit bytes and
// grows it, by doubling, for frames up to streamBufMax bytes.
const (
	streamBufInit = 4 << 10
	streamBufMax  = 16 << 20
)

// stream follows a run's NDJSON stream, invoking onCell for every cell
// record as its frame decodes whole, and returns the closing summary
// report. An error means the stream broke before the summary: the cells
// already passed to onCell are sound, the rest of the run never arrived.
func (c *client) stream(ctx context.Context, runID string, onCell func(harness.CellRecord)) (*service.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+runID+"/stream", nil)
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
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, streamBufInit), streamBufMax)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// A cell frame decodes once, into its record; a summary frame's
		// report fields are unknown here and decode below.
		var frame struct {
			Type string `json:"type"`
			harness.CellRecord
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			return nil, fmt.Errorf("malformed stream frame: %w", err)
		}
		switch frame.Type {
		case "cell":
			onCell(frame.CellRecord)
		case "summary":
			var rep service.Report
			if err := json.Unmarshal(line, &rep); err != nil {
				return nil, fmt.Errorf("malformed summary frame: %w", err)
			}
			return &rep, nil
		default:
			return nil, fmt.Errorf("unknown stream frame type %q", frame.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream broke: %w", err)
	}
	return nil, fmt.Errorf("stream ended without a summary")
}

// cancel DELETEs a run; used to reclaim a shard for work stealing.
func (c *client) cancel(ctx context.Context, runID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/runs/"+runID, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
