package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"strings"
	"testing"
	"testing/fstest"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/sim"
)

// files holds the scenario files of the file-backed experiments.
var files = os.DirFS("../../testdata/experiments")

func TestAllRegistered(t *testing.T) {
	all := All(files)
	wantIDs := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	if len(all) != len(wantIDs) {
		t.Fatalf("All() = %d experiments, want %d", len(all), len(wantIDs))
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d has ID %q, want %q", i, e.ID, wantIDs[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete definition", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID(files, "E4")
	if err != nil || e.ID != "E4" {
		t.Errorf("ByID(E4) = %v, %v", e.ID, err)
	}
	if _, err := ByID(files, "E99"); err == nil {
		t.Error("ByID(E99) succeeded")
	}
}

// Each experiment runs green and asserts its own bounds. The fast ones run
// in any mode; the heavier sweeps are guarded by -short.
func TestExperimentsPass(t *testing.T) {
	fast := map[string]bool{"F1": true, "E9": true}
	for _, e := range All(files) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && !fast[e.ID] {
				t.Skip("heavy sweep; run without -short")
			}
			// Experiments share no state, and the heaviest (E6) runs on one
			// core, so they overlap.
			t.Parallel()
			var buf bytes.Buffer
			out, err := e.Run(context.Background(), &buf)
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", e.ID, err, buf.String())
			}
			if !out.OK {
				t.Errorf("%s reports violated bounds:\n%s", e.ID, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
			if e.ID == "E2" {
				// A fixed adversary order keeps reruns diffable: each d runs
				// the burst, then the random pattern, at both σ.
				for i, row := range out.Tables[0].Rows {
					if want := [...]string{"/burst(", "/random("}[i/2%2]; !strings.Contains(row[0], want) {
						t.Errorf("E2 row %d: cell %q, want adversary %q", i, row[0], want)
					}
				}
			}
		})
	}
}

// TestRunAllAggregates checks RunAll's fold on two real experiments and
// two stubs; TestExperimentsPass runs the whole suite.
func TestRunAllAggregates(t *testing.T) {
	ctx := context.Background()
	var fast []Experiment
	for _, id := range []string{"F1", "E9"} {
		e, err := ByID(files, id)
		if err != nil {
			t.Fatal(err)
		}
		fast = append(fast, e)
	}
	ran := 0
	stub := func(id string, ok bool, err error) Experiment {
		return Experiment{ID: id, Title: "stub", Paper: "none", Run: func(context.Context, io.Writer) (*Outcome, error) {
			ran++
			if err != nil {
				return nil, err
			}
			return &Outcome{OK: ok}, nil
		}}
	}

	var buf bytes.Buffer
	ok, err := RunAll(ctx, &buf, fast)
	if err != nil || !ok {
		t.Fatalf("RunAll(F1, E9) = %v, %v; want true, nil", ok, err)
	}
	for _, want := range []string{"\nF1 — ", "\nE9 — "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks the %q header", want)
		}
	}

	// A violated bound fails the suite but does not stop it.
	ok, err = RunAll(ctx, io.Discard, []Experiment{stub("X1", false, nil), fast[1], stub("X2", true, nil)})
	if err != nil || ok || ran != 2 {
		t.Errorf("RunAll with a failing stub = %v, %v after %d stubs; want false, nil after 2", ok, err, ran)
	}

	// An error stops the suite, wrapped with the experiment's ID.
	ran = 0
	boom := errors.New("boom")
	ok, err = RunAll(ctx, io.Discard, []Experiment{stub("X3", true, nil), stub("X4", true, boom), stub("X5", true, nil)})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "X4: ") || ok || ran != 2 {
		t.Errorf("RunAll with an erroring stub = %v, %v after %d stubs; want false, X4: boom after 2", ok, err, ran)
	}
}

func TestFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	f1, err := ByID(files, "F1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := f1.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Error("F1 not OK")
	}
	text := buf.String()
	for _, want := range []string{"n = 16, m = 2, ℓ = 4", "0000", "1111", "virtual trajectory"} {
		if !strings.Contains(text, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, text)
		}
	}
}

// TestFileExperimentFails checks the failure paths of a file-backed
// experiment: a cell over its declared bound or under its declared floor
// fails the experiment, and a cell that errors stops it with the file's
// name.
func TestFileExperimentFails(t *testing.T) {
	err := registry.RegisterProtocol(registry.Protocol{
		Name:  "test-greedy-bound-1",
		Doc:   "test-only: greedy FIFO declaring a max load of 1",
		Build: func(registry.Params) (sim.Protocol, error) { return baseline.NewGreedy(baseline.FIFO{}), nil },
		Note:  "max load ≤ 1",
		Bound: func(registry.Params, *network.Network, adversary.Bound, []network.NodeID) (int, bool) { return 1, true },
	})
	if err != nil && !strings.Contains(err.Error(), "duplicate") {
		t.Fatal(err)
	}
	lb, err := registry.LookupAdversary("lowerbound")
	if err != nil {
		t.Fatal(err)
	}
	err = registry.RegisterAdversary(registry.Adversary{
		Name:   "test-lowerbound-floor-100",
		Doc:    "test-only: the Section 5 pattern declaring a floor of 100",
		Params: lb.Params,
		Prepare: func(b adversary.Bound, p registry.Params) (*registry.Prepared, error) {
			prep, err := lb.Prepare(b, p)
			if err != nil {
				return nil, err
			}
			prep.Floor = 100
			return prep, nil
		},
	})
	if err != nil && !strings.Contains(err.Error(), "duplicate") {
		t.Fatal(err)
	}
	files := fstest.MapFS{
		"x1-over.json": {Data: []byte(`{"name": "x1-over", "topology": {"name": "path", "params": {"n": 16}},
			"protocol": {"name": "test-greedy-bound-1"}, "adversary": {"name": "burst"},
			"bound": {"rho": "1", "sigma": 3}, "rounds": 100}`)},
		"x2-error.json": {Data: []byte(`{"name": "x2-error", "topology": {"name": "path", "params": {"n": 10}},
			"protocol": {"name": "hpts"}, "adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 1}, "rounds": 10}`)},
		"x4-under.json": {Data: []byte(`{"name": "x4-under", "protocol": {"name": "ppts"},
			"adversary": {"name": "test-lowerbound-floor-100"}, "bound": {"rho": "3/4", "sigma": 0}}`)},
	}
	out, err := fromFiles(files, "X1", "over", "none").Run(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if row := out.Tables[0].Rows[0]; out.OK || row[2] != "≤ 1" || !strings.Contains(row[3], "✗") {
		t.Errorf("a cell over its bound passed: OK = %v, row %q", out.OK, row)
	}
	out, err = fromFiles(files, "X4", "under", "none").Run(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if row := out.Tables[0].Rows[0]; out.OK || row[2] != "≥ 100" || !strings.Contains(row[3], "✗") {
		t.Errorf("a cell under its floor passed: OK = %v, row %q", out.OK, row)
	}
	if _, err := fromFiles(files, "X2", "error", "none").Run(context.Background(), io.Discard); err == nil || !strings.HasPrefix(err.Error(), "x2-error.json: ") {
		t.Errorf("an erroring cell gave %v, want an error naming x2-error.json", err)
	}
	if _, err := fromFiles(files, "X3", "none", "none").Run(context.Background(), io.Discard); err == nil {
		t.Error("an experiment without files ran")
	}
}

// fileRecords runs one experiment file and returns the scenario with its
// records, in cell-index order.
func fileRecords(t *testing.T, name string) (*scenario.Scenario, []harness.CellRecord) {
	t.Helper()
	data, err := fs.ReadFile(files, name)
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
	if err := agg.FirstErr(); err != nil {
		t.Fatal(err)
	}
	return sc, agg.Records()
}

// TestLocalityStaircase checks E10's claim across cells: under a
// sustained full-rate stream the naive local downhill rule reaches at
// least half the staircase n−1, (n−1)/2, on each pressure file's path(n).
func TestLocalityStaircase(t *testing.T) {
	names, err := fs.Glob(files, "e10-pressure-*.json")
	if err != nil || len(names) == 0 {
		t.Fatalf("no e10-pressure-*.json files (%v)", err)
	}
	for _, name := range names {
		sc, recs := fileRecords(t, name)
		n := sc.Topologies[0].Params["n"].(int)
		downhill := 0
		for _, rec := range recs {
			if !strings.HasPrefix(rec.Cell, "downhill/") {
				continue
			}
			downhill++
			if rec.MaxLoad < (n-1)/2 {
				t.Errorf("%s: %s reached max load %d, want ≥ (n−1)/2 = %d", name, rec.Cell, rec.MaxLoad, (n-1)/2)
			}
		}
		if downhill == 0 {
			t.Errorf("%s has no downhill cell", name)
		}
	}
}

// TestLatencyPrice checks E11's claims across cells: every protocol
// delivers, and the faster greedy policy's mean latency is at most the
// slower of PPTS with drain and HPTS.
func TestLatencyPrice(t *testing.T) {
	_, recs := fileRecords(t, "e11-latency.json")
	// Each protocol's latency sum and count; sums pass 2^31, so int64.
	type mean struct{ sum, count int64 }
	means := map[string]mean{}
	for _, rec := range recs {
		if rec.Delivered == 0 {
			t.Fatalf("%s delivered nothing", rec.Cell)
		}
		lat, ok := rec.MetricByName(metrics.NameLatency)
		if !ok {
			t.Fatalf("%s has no latency summary", rec.Cell)
		}
		proto, _, _ := strings.Cut(rec.Cell, "/")
		means[proto] = mean{int64(lat.Scalar("sum")), int64(lat.Scalar("count"))}
	}
	atMost := func(a, b mean) bool { return a.sum*b.count <= b.sum*a.count }
	fast := means["greedy-fifo"]
	if lis := means["greedy-lis"]; atMost(lis, fast) {
		fast = lis
	}
	slow := means["ppts(drain=true)"]
	if hpts := means["hpts(ell=2)"]; atMost(slow, hpts) {
		slow = hpts
	}
	if len(means) != 4 || !atMost(fast, slow) {
		t.Errorf("greedy mean latency %d/%d is above the slower peak-to-sink mean %d/%d (means %v)",
			fast.sum, fast.count, slow.sum, slow.count, means)
	}
}

// TestLossHeadroom checks E13's claims across the unit file's cells: at
// unit demand every cell stays at or below 2 + σ, and the headroom
// against it never falls as the drop probability p grows. The fault axis
// is the file's only axis with more than one point, so its cells run in
// the file's order of p, which must increase.
func TestLossHeadroom(t *testing.T) {
	sc, recs := fileRecords(t, "e13-unit.json")
	prevP := rat.New(-1, 1)
	for _, f := range sc.Faults {
		p, err := rat.Parse(f.Params["p"].(string))
		if err != nil || !prevP.Less(p) {
			t.Fatalf("e13-unit.json lists drop p %v after %v (%v); want increasing", f.Params["p"], prevP, err)
		}
		prevP = p
	}
	if len(recs) != len(sc.Faults) {
		t.Fatalf("%d cells for %d drop probabilities", len(recs), len(sc.Faults))
	}
	limit := 2 + sc.Bounds[0].Sigma
	prev := 0
	for i, rec := range recs {
		if rec.MaxLoad > limit {
			t.Errorf("%s: max load %d over 2 + σ = %d", rec.Cell, rec.MaxLoad, limit)
		}
		if headroom := limit - rec.MaxLoad; i > 0 && headroom < prev {
			t.Errorf("%s: headroom %d fell from %d as p grew", rec.Cell, headroom, prev)
		}
		prev = limit - rec.MaxLoad
	}
}
