package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/store"
)

// TestCorpusReportBytes checks every report that carries cells against
// json.Encoder's encoding of the same Report with its cells decoded, for
// each testdata/scenarios file: the synchronous POST, a warm hit, GET
// /v1/runs/{id}, and the hit a restarted daemon serves from its
// CacheDir. Reports write the lines publish encoded as their cells, so
// this is what keeps their bytes those of the decoded records. The entry
// each run seals must hold the same lines.
func TestCorpusReportBytes(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(paths) != 13 {
		t.Fatalf("corpus: %d files (%v), want 13", len(paths), err)
	}
	bodies := make([][]byte, len(paths))
	for i, p := range paths {
		if bodies[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	// report fetches one report and checks its bytes; it returns the
	// decoded report.
	report := func(what string, do func() (*http.Response, error), cached bool) Report {
		t.Helper()
		resp, err := do()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d (%v): %s", what, resp.StatusCode, err, data)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Bytes()) {
			t.Fatalf("%s: report bytes\n%s\nwant json.Encoder's\n%s", what, data, want.Bytes())
		}
		if d := harness.RecordsDigest(cellRecords(t, rep)); rep.Status != StatusDone || rep.Cached != cached ||
			len(rep.Cells) == 0 || d != rep.ResultsDigest {
			t.Fatalf("%s: status %q, cached %v, %d cells digesting to %s; want done, cached %v, the cells of results digest %s",
				what, rep.Status, rep.Cached, len(rep.Cells), d, cached, rep.ResultsDigest)
		}
		return rep
	}
	postTo := func(url string, body []byte) func() (*http.Response, error) {
		return func() (*http.Response, error) {
			return http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
		}
	}

	dir := t.TempDir()
	svc1, ts1 := restartableServer(Config{Workers: 2, SweepWorkers: 2, CacheDir: dir})
	first := make([]Report, len(paths))
	for i, p := range paths {
		first[i] = report(p+" POST", postTo(ts1.URL, bodies[i]), false)
		report(p+" warm hit", postTo(ts1.URL, bodies[i]), true)
		report(p+" GET", func() (*http.Response, error) { return http.Get(ts1.URL + "/v1/runs/" + first[i].ID) }, false)
	}
	// Close waits for every run's finish, which seals it.
	ts1.Close()
	svc1.Close()

	svc2, ts2 := restartableServer(Config{Workers: 2, CacheDir: dir})
	defer func() { ts2.Close(); svc2.Close() }()
	for i, p := range paths {
		warmed := report(p+" disk-warmed hit", postTo(ts2.URL, bodies[i]), true)
		if warmed.ResultsDigest != first[i].ResultsDigest {
			t.Errorf("%s: disk-warmed digest %s, first run %s", p, warmed.ResultsDigest, first[i].ResultsDigest)
		}

		sc, err := scenario.Parse(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		digest, err := sc.Digest()
		if err != nil {
			t.Fatal(err)
		}
		span, err := cellSpan(sc)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenSealed(dir, digest, span)
		if err != nil || st == nil {
			t.Fatalf("%s: no sealed entry (%v)", p, err)
		}
		k := 0
		err = st.ScanEncoded(func(line []byte) error {
			if want := first[i].Cells[k]; !bytes.Equal(line, want) {
				t.Errorf("%s: stored line %d\n%s\nwant\n%s", p, k, line, want)
			}
			k++
			return nil
		})
		st.Close()
		if err != nil || k != len(first[i].Cells) {
			t.Errorf("%s: %d stored lines (%v), want %d", p, k, err, len(first[i].Cells))
		}
	}
}

// cellRecords decodes a report's cells with encoding/json, the record
// codec's reference, and requires each to be the bytes json.Marshal
// gives for its record.
func cellRecords(t *testing.T, rep Report) []harness.CellRecord {
	t.Helper()
	recs := make([]harness.CellRecord, len(rep.Cells))
	for i, line := range rep.Cells {
		if err := json.Unmarshal(line, &recs[i]); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if want, err := json.Marshal(recs[i]); err != nil || !bytes.Equal(line, want) {
			t.Fatalf("cell %d is %s, json.Marshal gives %s", i, line, want)
		}
	}
	return recs
}
