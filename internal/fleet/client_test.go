package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/service"
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
			name:  "a frame of another layout decodes without an encoding",
			body:  `{"index":3,"cell":"n=8","max_load":2,"injected":40,"delivered":38,"residual":2,"type":"cell"}` + "\n" + summaryFrame(t, rep),
			cells: []harness.CellRecord{small},
			rep:   &rep,
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
				if line == nil {
					return
				}
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
