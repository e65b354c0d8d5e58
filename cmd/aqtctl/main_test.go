package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		svc := service.New(service.Config{Workers: 2, SweepWorkers: 2})
		ts := httptest.NewServer(svc)
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return addrs
}

func writeScenario(t *testing.T) string {
	t.Helper()
	src := `{
		"name": "aqtctl-grid",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": [30, 60],
		"seeds": [1, 2, 3]
	}`
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAqtctlEndToEnd drives the CLI against an in-process 2-daemon
// fleet: -result-digest must print exactly the local digest, and the
// human summary must report every cell.
func TestAqtctlEndToEnd(t *testing.T) {
	addrs := startDaemons(t, 2)
	scPath := writeScenario(t)

	data, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Digest()

	var stdout, stderr bytes.Buffer
	args := []string{
		"-fleet", strings.Join(addrs, ","),
		"-scenario", scPath,
		"-verify-local",
		"-result-digest",
	}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != want {
		t.Fatalf("-result-digest printed %q, local digest %s", got, want)
	}

	// Human summary via a fleet file.
	fleetFile := filepath.Join(t.TempDir(), "fleet.txt")
	if err := os.WriteFile(fleetFile, []byte("# test fleet\n"+strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-fleet", "@" + fleetFile, "-scenario", scPath, "-q"}, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl summary: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "6 requested, 6 completed, 0 failed") {
		t.Errorf("summary missing cell counts:\n%s", out)
	}
	if !strings.Contains(out, want) {
		t.Errorf("summary missing digest:\n%s", out)
	}
}

// TestAqtctlResume checks -store against an entry that holds part of the
// grid, as a killed coordinator leaves it: without -resume the run is
// refused, and with it the remainder runs, the log says it is resuming,
// and the printed digest is the local one.
func TestAqtctlResume(t *testing.T) {
	addrs := startDaemons(t, 2)
	scPath := writeScenario(t)
	data, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dig, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, dig, harness.IndexRange{Lo: 0, Hi: agg.Requested}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range agg.Records()[:agg.Requested/2] {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-fleet", strings.Join(addrs, ","), "-scenario", scPath, "-store", dir, "-result-digest"}
	if err := run(context.Background(), append(args, "-q"), &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("partial entry without -resume: err = %v, want a refusal naming -resume", err)
	}
	if err := run(context.Background(), append(args, "-resume"), &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl -resume: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resuming") {
		t.Errorf("resumed run never logged resuming:\n%s", stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != agg.Digest() {
		t.Errorf("-resume printed %q, local digest %s", got, agg.Digest())
	}
}

// TestParseFleet checks the -fleet operand as aqtctl reads it: blank
// entries are skipped, and duplicates, an empty list and a missing fleet
// file are refused before anything is dispatched.
func TestParseFleet(t *testing.T) {
	addrs := startDaemons(t, 2)
	var stdout, stderr bytes.Buffer
	args := []string{"-fleet", addrs[0] + ", " + addrs[1] + ",,", "-live", "-once"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl -fleet list: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, a := range addrs {
		if !strings.Contains(stdout.String(), a) {
			t.Errorf("daemon %s missing from snapshot:\n%s", a, stdout.String())
		}
	}
	for _, tc := range []struct{ fleet, what, err string }{
		{"a:1,a:1", "duplicate endpoints", "same daemon"},
		{",,", "empty list", "no endpoints"},
		{"@/nonexistent/fleet.txt", "missing fleet file", "fleet file"},
	} {
		err := run(context.Background(), []string{"-fleet", tc.fleet, "-scenario", "x.json"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want one containing %q", tc.what, err, tc.err)
		}
	}
}

func TestAqtctlFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "x.json"}, &out, &out); err == nil {
		t.Error("missing -fleet accepted")
	}
	if err := run(context.Background(), []string{"-fleet", "a:1"}, &out, &out); err == nil {
		t.Error("missing -scenario accepted")
	}
	if err := run(context.Background(), []string{"-fleet", "a:1", "-live", "-scenario", "x.json"}, &out, &out); err == nil {
		t.Error("-live with -scenario accepted")
	}
}

// TestAqtctlLiveOnce exercises the monitor mode against an idle fleet:
// one snapshot, every daemon shown, and a clean exit.
func TestAqtctlLiveOnce(t *testing.T) {
	addrs := startDaemons(t, 2)
	var stdout, stderr bytes.Buffer
	args := []string{"-fleet", strings.Join(addrs, ","), "-live", "-once"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl -live -once: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "0 runs in flight") {
		t.Errorf("missing fleet line:\n%s", out)
	}
	for _, a := range addrs {
		if !strings.Contains(out, a) {
			t.Errorf("daemon %s missing from snapshot:\n%s", a, out)
		}
	}
	if !strings.Contains(out, "idle") {
		t.Errorf("idle daemons not marked idle:\n%s", out)
	}
}
