package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

func TestList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.txt")
	if err := run(context.Background(), []string{"-list", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, id := range []string{"F1", "E1", "E5", "E10"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f1.txt")
	if err := run(context.Background(), []string{"-run", "F1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "virtual trajectory") {
		t.Errorf("F1 output missing trajectory:\n%s", data)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBadOutputPath(t *testing.T) {
	if err := run(context.Background(), []string{"-list", "-o", "/nonexistent-dir/x.txt"}); err == nil {
		t.Error("bad output path accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f1.json")
	if err := run(context.Background(), []string{"-run", "F1", "-json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, data)
	}
	if !report.OK || len(report.Experiments) != 1 {
		t.Fatalf("unexpected report: %+v", report)
	}
	e := report.Experiments[0]
	if e.ID != "F1" || !e.OK || len(e.Tables) == 0 {
		t.Errorf("unexpected experiment record: %+v", e)
	}
	if len(e.Tables[0].Columns) == 0 || len(e.Tables[0].Rows) == 0 {
		t.Errorf("table not structured: %+v", e.Tables[0])
	}
}

func TestScenarioCorpusValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios", "-validate", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "validated all") {
		t.Errorf("corpus validation incomplete:\n%s", data)
	}
}

func TestScenarioFileRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e1-pts-burst", "max load", "ok (1 cells)"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("scenario report missing %q:\n%s", want, data)
		}
	}
}

func TestScenarioBadPath(t *testing.T) {
	if err := run(context.Background(), []string{"-scenarios", "/nonexistent"}); err == nil {
		t.Error("bad scenarios path accepted")
	}
}

// TestScenariosAgainstServer replays a scenario against an in-process
// aqtserve and checks the report (including the cache-hit path on the
// second replay).
func TestScenariosAgainstServer(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		svc.Close()
	}()

	path := filepath.Join(t.TempDir(), "out.txt")
	args := []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-server", ts.URL, "-o", path}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e1-pts-burst", "max load", "results sha256:", "simulated", "ran all 1 scenario files against"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("remote report missing %q:\n%s", want, data)
		}
	}

	// Second replay of the identical corpus is served from the cache.
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "served from cache") {
		t.Errorf("second replay not served from cache:\n%s", data)
	}
}

func TestServerFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "http://localhost:1"},
		{"-scenarios", "../../testdata/scenarios", "-server", "http://x", "-validate"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
	// An unreachable server is a runtime failure, not a hang.
	err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-server", "http://127.0.0.1:1"})
	if err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestScenarioFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-scenarios", "../../testdata/scenarios", "-json"},
		{"-scenarios", "../../testdata/scenarios", "-list"},
		{"-scenarios", "../../testdata/scenarios", "-run", "E1"},
		{"-validate"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v accepted, want flag-conflict error", args)
		}
	}
}

func TestJSONCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-run", "E1", "-json", "-o", filepath.Join(t.TempDir(), "x.json")}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}

// TestScenarioStore drives -store over the corpus: the first run seals
// every file's entry with the digest a fresh run produces, the second
// serves every file from the store, and an entry whose recorded digest no
// longer matches its records is evicted and recomputed.
func TestScenarioStore(t *testing.T) {
	const corpus = "../../testdata/scenarios"
	dir := t.TempDir()
	runStore := func() string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "out.txt")
		if err := run(context.Background(), []string{"-scenarios", corpus, "-store", dir, "-o", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	files, err := filepath.Glob(filepath.Join(corpus, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v %v", files, err)
	}
	type entry struct {
		title, digest, results string
		span                   sb.CellIndexRange
	}
	entries := make([]entry, len(files))
	for i, f := range files {
		sc, err := sb.LoadScenarioFile(f)
		if err != nil {
			t.Fatal(err)
		}
		e := entry{title: sc.Name}
		if e.digest, err = sc.Digest(); err != nil {
			t.Fatal(err)
		}
		if e.span.Hi, err = sc.GridSize(); err != nil {
			t.Fatal(err)
		}
		agg, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		e.results = agg.Digest()
		entries[i] = e
	}
	sealed := func(e entry) string {
		t.Helper()
		st, err := store.OpenSealed(dir, e.digest, e.span)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			return ""
		}
		defer st.Close()
		return st.RecordsDigest()
	}

	first := runStore()
	if strings.Contains(first, " stored (") {
		t.Fatalf("first run served from an empty store:\n%s", first)
	}
	for _, e := range entries {
		if got := sealed(e); got != e.results {
			t.Errorf("%s: sealed digest %q, fresh run %s", e.title, got, e.results)
		}
	}

	second := runStore()
	for _, e := range entries {
		if want := fmt.Sprintf("%-28s stored (results %s)\n", e.title, e.results); !strings.Contains(second, want) {
			t.Errorf("second run does not serve %s from the store:\n%s", e.title, second)
		}
	}
	if strings.Contains(second, "ok (") {
		t.Errorf("second run re-simulated a stored file:\n%s", second)
	}

	// Tamper with one entry's recorded digest: its records no longer
	// re-derive it, so the entry is evicted and the file re-run.
	victim := entries[0]
	manifest := filepath.Join(store.EntryDir(dir, victim.digest), "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(data), victim.results)
	if at < 0 {
		t.Fatalf("manifest lacks the results digest:\n%s", data)
	}
	bad := victim.results[:len(victim.results)-1] + "x"
	if err := os.WriteFile(manifest, []byte(strings.Replace(string(data), victim.results, bad, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	third := runStore()
	if strings.Contains(third, fmt.Sprintf("%-28s stored (", victim.title)) {
		t.Errorf("tampered entry %s served from the store:\n%s", victim.title, third)
	}
	if got := strings.Count(third, " stored ("); got != len(entries)-1 {
		t.Errorf("third run served %d files from the store, want %d:\n%s", got, len(entries)-1, third)
	}
	if got := sealed(victim); got != victim.results {
		t.Errorf("recomputed entry sealed with %q, want %s", got, victim.results)
	}
}
