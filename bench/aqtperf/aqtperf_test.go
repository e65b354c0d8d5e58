package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOps is a handful of ops per workload: enough to run every code
// path once, small enough to keep the test to a few seconds.
const smokeOps = 3

// TestWorkloadsSmoke runs every workload untraced and traced at a few
// ops. It fails on any failed op, on a traced digest that differs from
// the untraced one (a tracing wrapper that hides or adds an optional
// interface changes the run), and on output that does not name every
// BENCHMARK.json metric with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u, err := runWorkload(ctx, root, w, 1, smokeOps, false, false, "", time.Now())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runWorkload(ctx, root, w, 1, smokeOps, false, true, filepath.Join(t.TempDir(), "trace.json"), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*childResult{u, tr} {
				if r.Failed != 0 || r.Attempted != smokeOps {
					t.Fatalf("%d of %d ops failed: %v", r.Failed, r.Attempted, r.Errors)
				}
			}
			if tr.Fold != u.Fold {
				t.Fatalf("traced fold %s, untraced %s", tr.Fold, u.Fold)
			}

			e2e := &result{Workload: w.name, Metrics: map[string]metricValue{}}
			e2e.setEndToEnd(u, []float64{u.SetupS}, 1<<20)
			layers := &result{Workload: w.name, Metrics: map[string]metricValue{}}
			layers.setPerLayer(u, tr)
			var out bytes.Buffer
			printLines(&out, e2e)
			printLines(&out, layers)
			printed := map[string]string{}
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.name {
					t.Fatalf("malformed line %q", line)
				}
				printed[f[1]] = f[3]
			}
			for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("BENCHMARK.json metric %s (%s): printed unit %q", m.Name, m.Unit, unit)
				}
			}
			for _, m := range sp.EndToEnd {
				if v := e2e.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, v)
				}
			}
		})
	}
}

// TestGeneratorsAcrossSeeds generates every workload's requests for
// many seeds at the smoke size, where a generator is most likely to run
// out of history, and checks that each warm served request repeats an
// earlier request of its own client.
func TestGeneratorsAcrossSeeds(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= 20; seed++ {
			sess, err := w.open(context.Background(), root, rand.New(rand.NewSource(seed)), smokeOps, w.clients)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if s, ok := sess.(*servedSession); ok {
				for i, r := range s.reqs {
					if r.origin > i || r.origin%w.clients != i%w.clients {
						t.Errorf("seed %d: op %d (client %d) repeats op %d", seed, i, i%w.clients, r.origin)
					}
				}
			}
			if err := sess.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTracedPathReproducesCorpus runs every corpus scenario through the
// traced in-process path and compares it with the repository's pinned
// digest. The corpus reaches every optional interface the wrappers must
// preserve but HPTS's (covered by hpts-local above): an adaptive,
// destination-hinting adversary (hotspot), hinting ones (random), and
// plain ones (stream, burst).
func TestTracedPathReproducesCorpus(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "testdata", "corpus_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	files, paths, err := loadCorpus(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range files {
		name := filepath.Base(paths[i])
		tr := &opTrace{}
		got, err := runLocal(context.Background(), body, tr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got != want[name] {
			t.Errorf("%s: traced digest %s, pinned %s", name, got, want[name])
		}
		if len(tr.cells) == 0 || tr.cells[0].calls[phDecide] == 0 {
			t.Errorf("%s: the trace recorded no Decide calls", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	ramp := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	// Set-up times 13 ms (25%) worse at the median, with mixed pairs.
	setupRuns := []float64{0.065, 0.049, 0.065, 0.049, 0.065, 0.049, 0.065, 0.065, 0.065, 0.065}
	for _, c := range []struct {
		name   string
		parent []float64
		change []float64
		bound  *float64
		floor  float64
		want   string
	}{
		{"faster", ramp(100, 1), ramp(80, 1), &bound, 0, "improved"},
		{"slower", ramp(100, 1), ramp(130, 1), &bound, 0, "regressed"},
		{"within bound", ramp(100, 1), ramp(101, 1), &bound, 0, "unchanged"},
		{"worse than bound, mixed pairs", ramp(100, 1), []float64{120, 99, 120, 99, 120, 99, 120, 99, 120, 120}, &bound, 0, "regressed"},
		{"worse than bound, no floor", ramp(0.05, 0.001), setupRuns, &bound, 0, "regressed"},
		{"worse than bound, within floor", ramp(0.05, 0.001), setupRuns, &bound, 0.02, "unchanged"},
		{"noisy parent", ramp(100, 10), ramp(100, 10), &bound, 0, "unresolved"},
		{"too few pairs", ramp(100, 1)[:9], ramp(80, 1)[:9], &bound, 0, "unresolved"},
		{"no bound", ramp(100, 1), ramp(101, 1), nil, 0, "unchanged"},
	} {
		if got, _ := verdict(c.parent, c.change, true, c.bound, c.floor); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
