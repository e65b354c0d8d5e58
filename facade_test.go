package smallbuffers_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/local"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/sim"
)

// TestFacadeSurface drives the facade's constructors, and the internal
// components the CLIs reach by name, end to end beside each other.
func TestFacadeSurface(t *testing.T) {
	t.Run("topologies", func(t *testing.T) {
		if _, err := network.NewTree([]sb.NodeID{1, network.None}); err != nil {
			t.Error(err)
		}
		if _, err := network.NewForest([]sb.NodeID{network.None, network.None}); err != nil {
			t.Error(err)
		}
		if _, err := network.RandomTree(10, rand.New(rand.NewSource(1))); err != nil {
			t.Error(err)
		}
		if _, err := network.CaterpillarTree(3, 1); err != nil {
			t.Error(err)
		}
		if _, err := network.BinaryTree(2); err != nil {
			t.Error(err)
		}
	})

	t.Run("protocol options", func(t *testing.T) {
		nw, err := sb.NewPath(16)
		if err != nil {
			t.Fatal(err)
		}
		bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}
		adv, err := sb.PPTSBurstAdversary(nw, bound, 3, 120)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, sb.NewPPTS(sb.PPTSWithDrain()), adv, 120))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLoad > 1+3+1 {
			t.Errorf("MaxLoad %d", res.MaxLoad)
		}

		tree, err := sb.SpiderTree(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		tadv, err := sb.TreeBurstAdversary(tree, bound, nil, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sb.RunContext(context.Background(),
			sb.NewSpec(tree, sb.NewTreePTS(core.TreePTSWithDrain()), tadv, 100)); err != nil {
			t.Fatal(err)
		}

		nw64, err := sb.NewPath(64)
		if err != nil {
			t.Fatal(err)
		}
		radv, err := sb.NewRandomAdversary(nw64, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw64, sb.NewHPTS(2, core.HPTSAblatePreBad()), radv, 200)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("local protocols", func(t *testing.T) {
		nw, err := sb.NewPath(8)
		if err != nil {
			t.Fatal(err)
		}
		bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}
		for _, p := range []sb.Protocol{local.NewDownhill(), local.NewOddEven()} {
			res, err := sb.RunContext(context.Background(),
				sb.NewSpec(nw, p, adversary.NewStream(bound, 0, 7), 200))
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Errorf("%s delivered nothing", p.Name())
			}
		}
	})

	t.Run("adversaries", func(t *testing.T) {
		nw, err := sb.NewPath(16)
		if err != nil {
			t.Fatal(err)
		}
		bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
		hot, err := adversary.NewHotSpot(nw, bound, []sb.NodeID{15}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cons := sim.NewConservationCheck()
		if _, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, core.NewPTS(), hot, 150, sb.WithObservers(cons))); err != nil {
			t.Fatal(err)
		}
		if cons.Err != nil {
			t.Error(cons.Err)
		}

		rr := adversary.NewRoundRobin(bound, 0, []sb.NodeID{10, 12, 15})
		if err := adversary.VerifyPrefix(nw, rr, 60); err != nil {
			t.Error(err)
		}
		gk, err := adversary.GreedyKiller(nw, bound, 4, 120)
		if err != nil {
			t.Fatal(err)
		}
		if err := adversary.VerifyPrefix(nw, gk, 120); err != nil {
			t.Error(err)
		}
	})

	t.Run("scenarios and registry", func(t *testing.T) {
		if len(registry.ProtocolNames()) < 10 || len(registry.TopologyNames()) < 4 ||
			len(registry.AdversaryNames()) < 7 || len(registry.InvariantNames()) < 1 {
			t.Errorf("registry enumeration too small: %v / %v / %v / %v",
				registry.ProtocolNames(), registry.TopologyNames(),
				registry.AdversaryNames(), registry.InvariantNames())
		}
		sc, err := sb.ParseScenario([]byte(`{
			"topology": {"name": "path", "params": {"n": 16}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "random", "params": {"d": 2}},
			"bound": {"rho": "1/2", "sigma": 2},
			"rounds": 50
		}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Marshal(); err != nil {
			t.Fatal(err)
		}
		agg, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg.Completed != 1 {
			t.Errorf("scenario run: %+v (first err: %v)", agg, agg.FirstErr())
		}

		// A custom protocol registered under a new name is immediately
		// constructible from scenario JSON.
		err = registry.RegisterProtocol(registry.Protocol{
			Name: "facade-test-greedy",
			Doc:  "registered in a test",
			Build: func(registry.Params) (sb.Protocol, error) {
				return sb.NewGreedy(sb.FIFO), nil
			},
		})
		// The registry is process-global: under -count>1 the name survives
		// from the previous run, which is fine for this test.
		if err != nil && !strings.Contains(err.Error(), "duplicate") {
			t.Fatal(err)
		}
		sc2, err := sb.ParseScenario([]byte(`{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "facade-test-greedy"},
			"adversary": {"name": "stream"},
			"bound": {"rho": "1/2", "sigma": 1},
			"rounds": 20
		}`))
		if err != nil {
			t.Fatal(err)
		}
		agg2, err := sc2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg2.Completed != 1 {
			t.Errorf("custom-protocol scenario: %+v (first err: %v)", agg2, agg2.FirstErr())
		}
	})

	t.Run("metrics", func(t *testing.T) {
		if got := registry.MetricNames(); len(got) < 5 {
			t.Errorf("MetricNames = %v, want the 5 built-ins", got)
		}
		hist := newMetric(t, "load_hist", nil)
		series := newMetric(t, "load_series", map[string]any{"cap": 16, "tail": 4})
		nw, err := sb.NewPath(8)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, sb.NewPPTS(), adv, 60, sim.WithMetrics(hist, series)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != 2 {
			t.Fatalf("Result.Metrics = %v", res.Metrics)
		}
		ls := res.Metrics["load_series"]
		if s, ok := ls.SeriesByKey("max"); !ok || s.Rounds != 60 {
			t.Errorf("load_series summary: %+v", ls)
		}
		merged, err := sb.MergeMetricSummaries([]map[string]sb.MetricSummary{res.Metrics, res.Metrics})
		if err != nil {
			t.Fatal(err)
		}
		if merged["load_hist"].Hist == nil || merged["load_hist"].Hist.Count != 2*res.Metrics["load_hist"].Hist.Count {
			t.Errorf("merged load_hist: %+v", merged["load_hist"])
		}
		var buf bytes.Buffer
		if err := sb.RenderHistogram(&buf, "t", res.Metrics["load_hist"].Hist.Bars(), 20); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Error("empty histogram rendering")
		}

		// A custom collector registered under a new name is immediately
		// selectable from scenario JSON.
		err = registry.RegisterMetric(registry.Metric{
			Name: "facade-test-rounds",
			Doc:  "registered in a test",
			Build: func(registry.Params) (metrics.Collector, error) {
				return &roundCounter{}, nil
			},
		})
		if err != nil && !strings.Contains(err.Error(), "duplicate") {
			t.Fatal(err)
		}
		sc, err := sb.ParseScenario([]byte(`{
			"topology": {"name": "path", "params": {"n": 8}},
			"protocol": {"name": "ppts"},
			"adversary": {"name": "stream"},
			"bound": {"rho": "1/2", "sigma": 1},
			"rounds": 25,
			"metrics": [{"name": "facade-test-rounds"}]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg.Completed != 1 {
			t.Fatalf("custom-metric scenario: %+v (first err: %v)", agg, agg.FirstErr())
		}
		got := agg.Cells[0].Result.Metrics["facade-test-rounds"]
		if got.Scalar("rounds") != 25 {
			t.Errorf("custom collector summary = %+v, want rounds=25", got)
		}
	})

	t.Run("rendering", func(t *testing.T) {
		var buf bytes.Buffer
		if err := sb.RenderSparkline(&buf, []int{1, 3, 2, 5}, 20); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Error("empty sparkline")
		}
		buf.Reset()
		if err := sb.RenderSeries(&buf, "forwards", []int{0, 2, 1}, 20); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "forwards") {
			t.Errorf("series rendering lacks its label: %q", buf.String())
		}
	})
}

// newMetric builds a fresh collector from the registry by name, with
// params resolved against its schema.
func newMetric(t *testing.T, name string, params map[string]any) metrics.Collector {
	t.Helper()
	e, err := registry.LookupMetric(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Params.Resolve(params)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// roundCounter is a minimal custom collector registered by name: it
// counts rounds through the metrics hook types.
type roundCounter struct {
	metrics.NopObserver
	rounds int
}

func (c *roundCounter) Name() string                 { return "facade-test-rounds" }
func (c *roundCounter) OnRoundEnd(int, metrics.View) { c.rounds++ }
func (c *roundCounter) Summarize() sb.MetricSummary {
	return sb.MetricSummary{Name: "facade-test-rounds", Kind: "scalar",
		Scalars: map[string]int{"rounds": c.rounds}}
}
