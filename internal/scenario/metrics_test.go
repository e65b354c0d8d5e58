package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
)

// metricScenario is a one-point scenario selecting the acceptance
// criterion's metric set.
func metricScenario() []byte {
	return []byte(`{
		"topology": {"name": "path", "params": {"n": 24}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 4}},
		"bound": {"rho": "1", "sigma": 2},
		"rounds": 200,
		"seeds": [7, 8],
		"metrics": [{"name": "load_series"}, {"name": "load_hist"}, {"name": "latency"}]
	}`)
}

func TestMetricsAxisNormalizesAndRoundTrips(t *testing.T) {
	sc, err := Parse(metricScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Metrics) != 3 {
		t.Fatalf("metrics axis = %v", sc.Metrics)
	}
	// Defaults materialize: load_series carries cap/tail after Validate.
	if sc.Metrics[0].Name != "load_series" || sc.Metrics[0].Params["cap"] != 512 || sc.Metrics[0].Params["tail"] != 64 {
		t.Errorf("load_series params not defaulted: %v", sc.Metrics[0].Params)
	}
	out, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"metrics"`) {
		t.Fatalf("canonical form lacks metrics:\n%s", out)
	}
	re, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := re.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Errorf("metrics axis breaks the marshal fixed point:\n%s\nvs\n%s", out, out2)
	}
}

func TestMetricsAxisSingularKey(t *testing.T) {
	sc, err := Parse([]byte(`{
		"topology": {"name": "path"},
		"protocol": {"name": "pts"},
		"adversary": {"name": "stream"},
		"bound": {"rho": "1/2", "sigma": 1},
		"rounds": 20,
		"metric": {"name": "latency"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Metrics) != 1 || sc.Metrics[0].Name != "latency" {
		t.Fatalf("metrics = %v", sc.Metrics)
	}
}

func TestMetricsAxisValidation(t *testing.T) {
	for name, body := range map[string]string{
		"unknown name":      `"metrics": [{"name": "nope"}]`,
		"unknown param":     `"metrics": [{"name": "latency", "params": {"cap": 8}}]`,
		"duplicate metric":  `"metrics": [{"name": "latency"}, {"name": "latency"}]`,
		"singular + plural": `"metric": {"name": "latency"}, "metrics": [{"name": "load_hist"}]`,
	} {
		t.Run(name, func(t *testing.T) {
			src := `{
				"topology": {"name": "path"},
				"protocol": {"name": "pts"},
				"adversary": {"name": "stream"},
				"bound": {"rho": "1/2", "sigma": 1},
				"rounds": 20,
				` + body + `}`
			if _, err := Parse([]byte(src)); err == nil {
				t.Errorf("scenario with %s validated", name)
			}
		})
	}
}

func TestOnePointSweepBuildsMetricCollectors(t *testing.T) {
	sc, err := Parse([]byte(`{
		"topology": {"name": "path", "params": {"n": 12}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 3}},
		"bound": {"rho": "1", "sigma": 2},
		"rounds": 100,
		"metrics": [{"name": "load_series", "params": {"cap": 32, "tail": 8}}, {"name": "latency"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 1 {
		t.Fatal(agg.FirstErr())
	}
	res := agg.Cells[0].Result
	if len(res.Metrics) != 2 {
		t.Fatalf("Result.Metrics names = %v, want load_series+latency", metrics.SortedNames(res.Metrics))
	}
	ls := res.Metrics[metrics.NameLoadSeries]
	series, ok := ls.SeriesByKey("max")
	if !ok || series.Rounds != 100 {
		t.Errorf("load_series = %+v", ls)
	}
	if len(series.Tail) != 8 {
		t.Errorf("tail length %d, want the configured 8", len(series.Tail))
	}
}

// TestMetricsDigestStableAcrossExecutionPaths is the acceptance gate at
// the library level: the same metric-selecting scenario produces the
// same results digest through the sweep at any worker count, and the
// records carry the selected summaries.
func TestMetricsDigestStableAcrossExecutionPaths(t *testing.T) {
	digests := make([]string, 0, 3)
	var first []harness.CellRecord
	var firstAgg map[string]metrics.Summary
	for _, workers := range []int{1, 4, 7} {
		sc, err := Parse(metricScenario())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		sw.Workers = workers
		agg, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg.Failed > 0 {
			t.Fatal(agg.FirstErr())
		}
		digests = append(digests, agg.Digest())
		if first == nil {
			first, firstAgg = agg.Records(), agg.Metrics
		} else if !reflect.DeepEqual(agg.Metrics, firstAgg) {
			// Anchored merges fold in cell-index order, so the aggregate
			// must not depend on worker-completion order.
			t.Fatalf("aggregated metrics vary with worker count %d:\n%v\nvs\n%v", workers, agg.Metrics, firstAgg)
		}
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("digest varies with worker count: %v", digests)
	}
	for _, rec := range first {
		if len(rec.Metrics) != 3 {
			t.Fatalf("record %d carries %d summaries, want 3", rec.Index, len(rec.Metrics))
		}
		if rec.Metrics[0].Name != "latency" || rec.Metrics[1].Name != "load_hist" || rec.Metrics[2].Name != "load_series" {
			t.Fatalf("record metrics not name-sorted: %v", rec.Metrics)
		}
		lat, _ := rec.MetricByName(metrics.NameLatency)
		if lat.Scalar("count") != rec.Delivered || lat.Scalar("sum") != rec.TotalLatency {
			t.Errorf("latency summary %v disagrees with record scalars", lat.Scalars)
		}
	}
}
