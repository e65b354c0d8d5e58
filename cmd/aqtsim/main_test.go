package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sb "smallbuffers"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

func TestDefaultRun(t *testing.T) {
	out, err := runCLI(t, "-rounds", "200")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol:   PPTS", "max load:", "Proposition 3.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestProtocols(t *testing.T) {
	cases := [][]string{
		{"-protocol", "pts", "-adversary", "stream", "-d", "1", "-rounds", "100"},
		{"-protocol", "pts", "-drain", "-adversary", "stream", "-d", "1", "-rounds", "100"},
		{"-protocol", "hpts", "-ell", "2", "-rho", "1/2", "-rounds", "200"},
		{"-protocol", "greedy-fifo", "-rounds", "100"},
		{"-protocol", "greedy-ntg", "-rounds", "100"},
		{"-topology", "spider", "-protocol", "tree-ppts", "-rounds", "100"},
		{"-topology", "binary", "-protocol", "tree-pts", "-adversary", "stream", "-d", "1", "-rounds", "100"},
		{"-topology", "caterpillar", "-protocol", "greedy-lis", "-rounds", "100"},
		{"-adversary", "burst", "-d", "4", "-rounds", "150"},
		{"-adversary", "roundrobin", "-rounds", "100"},
		{"-adversary", "greedykiller", "-d", "4", "-rounds", "150"},
		{"-adversary", "lowerbound", "-m", "4", "-ell", "2", "-rho", "1/2"},
		{"-protocol", "ppts", "-heatmap", "-rounds", "80"},
		{"-adversary", "hotspot", "-rounds", "150"},
		{"-protocol", "downhill", "-adversary", "stream", "-d", "1", "-rounds", "150"},
		{"-protocol", "oddeven", "-adversary", "stream", "-d", "1", "-rho", "1/2", "-rounds", "150"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, err := runCLI(t, args...)
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !strings.Contains(out, "max load:") {
				t.Errorf("missing summary:\n%s", out)
			}
		})
	}
}

func TestMetricsFlag(t *testing.T) {
	out, err := runCLI(t, "-rounds", "200", "-metrics", "load_series,load_hist,latency")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"metric latency (hist)", "p50=", "p99=",
		"metric load_hist (hist)",
		"metric load_series (series)", "stride",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The metric set is part of the workload: it shows in the canonical
	// dump and changes the scenario digest.
	dump, err := runCLI(t, "-rounds", "200", "-metrics", "latency", "-dump-scenario")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, `"metrics"`) || !strings.Contains(dump, `"latency"`) {
		t.Errorf("dump lacks the metrics axis:\n%s", dump)
	}
	plain, err := runCLI(t, "-rounds", "200", "-digest")
	if err != nil {
		t.Fatal(err)
	}
	withMetrics, err := runCLI(t, "-rounds", "200", "-metrics", "latency", "-digest")
	if err != nil {
		t.Fatal(err)
	}
	if plain == withMetrics {
		t.Error("scenario digest blind to the metrics axis")
	}

	if _, err := runCLI(t, "-rounds", "50", "-metrics", "nope"); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Errorf("unknown metric error = %v", err)
	}
	if _, err := runCLI(t, "-scenario", "testdata-nonexistent.json", "-metrics", "latency"); err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("-scenario plus -metrics should conflict, got %v", err)
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCLI(t, "-json", "-rounds", "50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\"loads\"") {
		t.Errorf("not JSON:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "bogus"},
		{"-adversary", "bogus"},
		{"-topology", "bogus"},
		{"-rho", "not-a-rat"},
		{"-protocol", "greedy-bogus"},
		{"-protocol", "hpts", "-ell", "3", "-n", "10"},          // 10 is not m³
		{"-protocol", "pts", "-adversary", "random", "-d", "3"}, // PTS with 3 dests
		{"-bandwidth", "0"},
		{"-bandwidth", "-3"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if _, err := runCLI(t, args...); err == nil {
				t.Errorf("%v succeeded, want error", args)
			}
		})
	}
}

func TestVerifyFlagCatchesNothingOnGoodPatterns(t *testing.T) {
	if _, err := runCLI(t, "-verify=true", "-rounds", "150"); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioReproducesFlags is the digest gate: for each flag
// invocation, -dump-scenario followed by -scenario must replay the exact
// same run, compared on results digests (sha256 over the per-cell
// records) rather than raw output bytes.
func TestScenarioReproducesFlags(t *testing.T) {
	cases := [][]string{
		{"-rounds", "150"},
		{"-protocol", "pts", "-adversary", "stream", "-d", "1", "-rounds", "100"},
		{"-protocol", "hpts", "-ell", "2", "-rho", "1/2", "-rounds", "150"},
		{"-protocol", "greedy-ntg", "-adversary", "greedykiller", "-d", "4", "-rounds", "150"},
		{"-topology", "spider", "-protocol", "tree-ppts", "-rounds", "100"},
		{"-adversary", "lowerbound", "-m", "4", "-ell", "2", "-rho", "3/4"},
		{"-adversary", "hotspot", "-seed", "9", "-rounds", "120"},
		{"-bandwidth", "4", "-rho", "2", "-rounds", "120"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			direct, err := runCLI(t, append(args, "-result-digest")...)
			if err != nil {
				t.Fatal(err)
			}
			dump, err := runCLI(t, append(args, "-dump-scenario")...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "s.json")
			if err := os.WriteFile(path, []byte(dump), 0o600); err != nil {
				t.Fatal(err)
			}
			viaFile, err := runCLI(t, "-scenario", path, "-result-digest")
			if err != nil {
				t.Fatal(err)
			}
			if direct != viaFile {
				t.Errorf("flag run and scenario run diverge:\n--- flags\n%s--- scenario\n%s", direct, viaFile)
			}
			if !strings.HasPrefix(direct, "sha256:") {
				t.Errorf("result digest %q lacks the sha256: prefix", direct)
			}
		})
	}
}

// TestDumpScenarioDigestFixedPoint gates the dump/load round trip on
// canonical digests: a dumped scenario re-loaded (from a file or a pipe)
// digests identically, and -digest agrees with an independent
// Digest() computation over the dumped bytes.
func TestDumpScenarioDigestFixedPoint(t *testing.T) {
	first, err := runCLI(t, "-rounds", "200", "-digest")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := runCLI(t, "-rounds", "200", "-dump-scenario")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(dump), 0o600); err != nil {
		t.Fatal(err)
	}
	second, err := runCLI(t, "-scenario", path, "-digest")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("digest not a dump/load fixed point:\n--- flags\n%s--- reloaded\n%s", first, second)
	}
	sc, err := sb.ParseScenario([]byte(dump))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(first) != want {
		t.Errorf("-digest prints %q, library computes %q", strings.TrimSpace(first), want)
	}
}

func TestScenarioSweepReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	src := `{
		"topology": {"name": "path", "params": {"n": 16}},
		"protocols": [{"name": "ppts"}, {"name": "greedy-fifo"}],
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 100,
		"seeds": [1, 2]
	}`
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-scenario", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cells:      4 completed", "max load:", "greedy-fifo"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep report missing %q:\n%s", want, out)
		}
	}
	// Trace output needs a single run.
	if _, err := runCLI(t, "-scenario", path, "-json"); err == nil {
		t.Error("-json on a sweep grid must fail")
	}
}

func TestScenarioErrors(t *testing.T) {
	if _, err := runCLI(t, "-scenario", "/nonexistent/s.json"); err == nil {
		t.Error("missing scenario file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := `{
		"topology": {"name": "path"}, "protocol": {"name": "ptss"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`
	if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := runCLI(t, "-scenario", path)
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("want a did-you-mean error, got %v", err)
	}
}

// Workload flags alongside -scenario would be silently overridden by the
// file; the CLI rejects the combination (output flags still compose).
func TestScenarioRejectsConflictingWorkloadFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	dump, err := runCLI(t, "-rounds", "50", "-dump-scenario")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(dump), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-rho", "2"},
		{"-rounds", "7"},
		{"-protocol", "pts"},
		{"-seed", "9"},
	} {
		args := append([]string{"-scenario", path}, extra...)
		_, err := runCLI(t, args...)
		if err == nil || !strings.Contains(err.Error(), "conflicting") {
			t.Errorf("%v: want conflicting-flag error, got %v", args, err)
		}
	}
	// Output flags remain compatible.
	if _, err := runCLI(t, "-scenario", path, "-json"); err != nil {
		t.Errorf("-json with -scenario: %v", err)
	}
}

// TestLinksLine pins the report's links: line, the busiest link and its
// share of rounds × bandwidth, on a run where nothing moves (the lowest
// node with a link, at 0%), at B = 2, and on a zero-round run, which
// prints no line.
func TestLinksLine(t *testing.T) {
	pts := func(rho, rounds string) []string {
		return []string{"-n", "8", "-protocol", "pts", "-adversary", "random",
			"-rho", rho, "-sigma", "0", "-d", "1", "-rounds", rounds}
	}
	cases := []struct {
		args []string
		want string // "" means no links: line
	}{
		{pts("1", "10"), "busiest 4 at 50%"},
		{pts("0", "10"), "busiest 0 at 0%"},
		{[]string{"-topology", "spider", "-arms", "3", "-len", "2", "-protocol", "tree-ppts",
			"-adversary", "random", "-rho", "1", "-sigma", "1", "-rounds", "50"}, "busiest 0 at 98%"},
		{[]string{"-n", "16", "-bandwidth", "2", "-protocol", "ppts", "-adversary", "random",
			"-rho", "3/2", "-sigma", "1", "-d", "2", "-rounds", "40"}, "busiest 14 at 38%"},
		{pts("1", "0"), ""},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, err := runCLI(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "links:") {
					got = line
				}
			}
			want := ""
			if tc.want != "" {
				want = "links:      " + tc.want + " of rounds×bandwidth"
			}
			if got != want {
				t.Errorf("links line %q, want %q:\n%s", got, want, out)
			}
		})
	}
}
