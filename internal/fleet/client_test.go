package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// cellFrame and summaryFrame render stream frames the way the service
// writes them.
func cellFrame(t *testing.T, rec harness.CellRecord) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Type string `json:"type"`
		harness.CellRecord
	}{"cell", rec})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

func summaryFrame(t *testing.T, rep service.Report) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Type string `json:"type"`
		service.Report
	}{"summary", rep})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// TestStreamDecoder runs client.stream against canned NDJSON bodies.
func TestStreamDecoder(t *testing.T) {
	small := harness.CellRecord{Index: 3, Cell: "n=8", MaxLoad: 2, Injected: 40, Delivered: 38, Residual: 2}
	wide := harness.CellRecord{Index: 4, Cell: strings.Repeat("w", 3*streamBufInit), MaxLoad: 5}
	rep := service.Report{ID: "r1-x", Digest: "sha256:ab", Status: "done", ResultsDigest: "sha256:cd"}
	for _, tc := range []struct {
		name  string
		body  string
		cells []harness.CellRecord
		cut   int // how many cells come with their encoding cut from the frame
		rep   *service.Report
		err   string
	}{
		{
			name:  "a frame wider than the initial buffer arrives whole",
			body:  cellFrame(t, small) + cellFrame(t, wide) + summaryFrame(t, rep),
			cells: []harness.CellRecord{small, wide},
			cut:   2,
			rep:   &rep,
		},
		{
			name: "a frame of another layout breaks the stream",
			body: cellFrame(t, small) + `{"index":3,"cell":"n=8","max_load":2,"injected":40,"delivered":38,"residual":2,"type":"cell"}` + "\n" +
				summaryFrame(t, rep),
			cells: []harness.CellRecord{small},
			cut:   1,
			err:   "malformed cell frame",
		},
		{
			name: "a frame past the cap fails after the cells before it",
			body: cellFrame(t, small) + `{"type":"cell","cell":"` + strings.Repeat("x", streamBufMax) + "\"}\n" +
				summaryFrame(t, rep),
			cells: []harness.CellRecord{small},
			cut:   1,
			err:   "stream broke",
		},
		{
			name:  "blank lines are skipped",
			body:  "\n  \n" + cellFrame(t, small) + "\n\t\n" + summaryFrame(t, rep),
			cells: []harness.CellRecord{small},
			cut:   1,
			rep:   &rep,
		},
		{
			name:  "an unknown frame type is an error",
			body:  cellFrame(t, small) + `{"type":"progress","cells_done":1}` + "\n" + summaryFrame(t, rep),
			cells: []harness.CellRecord{small},
			cut:   1,
			err:   `unknown stream frame type "progress"`,
		},
		{
			name: "the summary frame returns its report",
			body: summaryFrame(t, rep) + cellFrame(t, small),
			rep:  &rep,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/runs/r1-x/stream" {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			var cells []harness.CellRecord
			cut := 0
			got, err := newClient(ts.URL).stream(context.Background(), "r1-x", func(rec harness.CellRecord, line []byte) {
				cells = append(cells, rec)
				cut++
				if want, err := json.Marshal(rec); err != nil || string(line) != string(want) {
					t.Errorf("cell %d: cut %s from its frame, want %s", rec.Index, line, want)
				}
			})
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("stream error = %v, want one containing %q", err, tc.err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if cut != tc.cut {
				t.Errorf("%d cells came with their encoding, want %d", cut, tc.cut)
			}
			if !reflect.DeepEqual(cells, tc.cells) {
				t.Errorf("onCell got %d cells %.200v, want %d", len(cells), cells, len(tc.cells))
			}
			if !reflect.DeepEqual(got, tc.rep) {
				t.Errorf("report = %+v, want %+v", got, tc.rep)
			}
		})
	}
}

// TestFleetHostileCellFrame gives a fleet one daemon whose first stream
// carries one bad cell frame: cut one byte short, its fields reordered
// (still valid JSON, and the record json.Unmarshal reads from it is
// sound), an extra space, or a duplicated index key. The frame must break
// the stream and the shard must be retried; nothing from the bad frame
// reaches the store, which holds one canonical frame per cell, and the
// fleet's digest is the local run's. A daemon that answers a shard from
// its cache sends the cells in the POST's report instead, and a respaced
// cell there must fail the shard the same way.
func TestFleetHostileCellFrame(t *testing.T) {
	sc := gridScenario(t, "fleet-hostile", 4, 20, 0)
	want := localDigest(t, sc)
	for _, tc := range []struct {
		name   string
		cached bool // a first run leaves every shard's report in the daemon's cache
		tamper func(frame string) string
	}{
		{"cut one byte short", false, func(f string) string { return f[:len(f)-1] }},
		{"fields reordered", false, func(f string) string {
			// json.Marshal writes a map's keys sorted: "cell" before
			// "index".
			var fields map[string]json.RawMessage
			if err := json.Unmarshal([]byte(f), &fields); err != nil {
				t.Fatal(err)
			}
			delete(fields, "type")
			sorted, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			return service.CellFramePrefix + string(sorted[1:])
		}},
		{"an extra space", false, func(f string) string { return strings.Replace(f, `"index":`, `"index": `, 1) }},
		{"a duplicated index key", false, func(f string) string {
			i := strings.Index(f, `,"cell":`)
			return f[:i] + "," + f[len(service.CellFramePrefix):i] + f[i:]
		}},
		{"an extra space in a cached report", true, func(f string) string {
			return strings.Replace(f, `"cells":[{"index":`, `"cells":[{"index": `, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1})
			if tc.cached {
				warm := Config{Endpoints: []string{d.ts.URL}, InFlightPerDaemon: 1, Clock: &fakeClock{}, Logf: t.Logf}
				if _, err := Run(context.Background(), warm, sc); err != nil {
					t.Fatal(err)
				}
			}
			var wrapped, tampered atomic.Bool
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				target := strings.HasSuffix(r.URL.Path, "/stream")
				if tc.cached {
					target = r.Method == http.MethodPost
				}
				if target && wrapped.CompareAndSwap(false, true) {
					w = &tamperingWriter{ResponseWriter: w, tamper: func(frame string) string {
						bad := tc.tamper(frame)
						if bad == frame {
							t.Errorf("tampering left %s as it was", frame)
						}
						tampered.Store(true)
						return bad
					}}
				}
				d.serve(w, r)
			}))
			defer ts.Close()
			root := t.TempDir()
			st := openStoreFor(t, root, sc)
			cfg := Config{Endpoints: []string{ts.URL}, Store: st, InFlightPerDaemon: 1, Clock: &fakeClock{}, Logf: t.Logf}
			res, err := Run(context.Background(), cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !tampered.Load() {
				t.Fatal("no cell was tampered with")
			}
			if res.Summary.ResultsDigest != want || res.Summary.Retries == 0 {
				t.Errorf("fleet digest %s after %d retries, want the local %s after a retry", res.Summary.ResultsDigest, res.Summary.Retries, want)
			}
			if got, err := st.Digest(); err != nil || got != want {
				t.Errorf("the store re-derives %s (%v), want %s", got, err, want)
			}
			total, err := sc.GridSize()
			if err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(store.EntryDir(root, st.Scenario()), "seg-*.ndj"))
			if err != nil {
				t.Fatal(err)
			}
			frames := 0
			for _, seg := range segs {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				frames += strings.Count(string(data), "\n")
			}
			if frames != total {
				t.Errorf("the store holds %d frames, want one per cell, %d", frames, total)
			}
		})
	}
}

// tamperingWriter replaces the first write that carries a cell, a
// stream's cell frame or a report with cells, with tamper's version of
// it.
type tamperingWriter struct {
	http.ResponseWriter
	tamper func(frame string) string
	done   bool
}

func (w *tamperingWriter) Flush() { _ = http.NewResponseController(w.ResponseWriter).Flush() }

func (w *tamperingWriter) Write(p []byte) (int, error) {
	if w.done || !strings.Contains(string(p), `"index":`) {
		return w.ResponseWriter.Write(p)
	}
	w.done = true
	if _, err := io.WriteString(w.ResponseWriter, w.tamper(strings.TrimSuffix(string(p), "\n"))+"\n"); err != nil {
		return 0, err
	}
	return len(p), nil
}
