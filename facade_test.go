package smallbuffers_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	sb "smallbuffers"
)

// TestFacadeSurface exercises every public constructor end to end so the
// facade cannot drift from the internals it wraps.
func TestFacadeSurface(t *testing.T) {
	t.Run("topologies", func(t *testing.T) {
		if _, err := sb.NewTree([]sb.NodeID{1, sb.None}); err != nil {
			t.Error(err)
		}
		if _, err := sb.NewForest([]sb.NodeID{sb.None, sb.None}); err != nil {
			t.Error(err)
		}
		if _, err := sb.RandomTree(10, rand.New(rand.NewSource(1))); err != nil {
			t.Error(err)
		}
		if _, err := sb.CaterpillarTree(3, 1); err != nil {
			t.Error(err)
		}
		if _, err := sb.BinaryTree(2); err != nil {
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
			sb.NewSpec(tree, sb.NewTreePTS(sb.TreePTSWithDrain()), tadv, 100)); err != nil {
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
			sb.NewSpec(nw64, sb.NewHPTS(2, sb.HPTSAblatePreBad()), radv, 200)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("local protocols", func(t *testing.T) {
		nw, err := sb.NewPath(8)
		if err != nil {
			t.Fatal(err)
		}
		bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}
		for _, p := range []sb.Protocol{sb.NewDownhill(), sb.NewOddEvenDownhill()} {
			res, err := sb.RunContext(context.Background(),
				sb.NewSpec(nw, p, sb.NewStream(bound, 0, 7), 200))
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
		hot, err := sb.NewHotSpotAdversary(nw, bound, []sb.NodeID{15}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cons := sb.NewConservationCheck()
		if _, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, sb.NewPTS(), hot, 150, sb.WithObservers(cons))); err != nil {
			t.Fatal(err)
		}
		if cons.Err != nil {
			t.Error(cons.Err)
		}

		rr := sb.NewRoundRobin(bound, 0, []sb.NodeID{10, 12, 15})
		if err := sb.VerifyAdversary(nw, rr, 60); err != nil {
			t.Error(err)
		}
		delayed := sb.NewDelayed(sb.NewStream(bound, 0, 15), 5)
		if err := sb.VerifyAdversary(nw, delayed, 60); err != nil {
			t.Error(err)
		}
		gk, err := sb.GreedyKillerAdversary(nw, bound, 4, 120)
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.VerifyAdversary(nw, gk, 120); err != nil {
			t.Error(err)
		}
	})

	t.Run("scenarios and registry", func(t *testing.T) {
		if len(sb.RegisteredProtocols()) < 10 || len(sb.RegisteredTopologies()) < 4 ||
			len(sb.RegisteredAdversaries()) < 7 || len(sb.RegisteredInvariants()) < 1 {
			t.Errorf("registry enumeration too small: %v / %v / %v / %v",
				sb.RegisteredProtocols(), sb.RegisteredTopologies(),
				sb.RegisteredAdversaries(), sb.RegisteredInvariants())
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

		// The extension hooks: a custom protocol registered under a new name
		// is immediately constructible from scenario JSON.
		err = sb.RegisterProtocol(sb.RegistryProtocol{
			Name: "facade-test-greedy",
			Doc:  "registered through the facade in a test",
			Build: func(sb.RegistryParams) (sb.Protocol, error) {
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
		if got := sb.RegisteredMetrics(); len(got) < 5 {
			t.Errorf("RegisteredMetrics = %v, want the 5 built-ins", got)
		}
		hist, err := sb.NewMetric("load_hist", nil)
		if err != nil {
			t.Fatal(err)
		}
		series, err := sb.NewMetric("load_series", map[string]any{"cap": 16, "tail": 4})
		if err != nil {
			t.Fatal(err)
		}
		nw, err := sb.NewPath(8)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, sb.NewPPTS(), adv, 60, sb.WithMetrics(hist, series)))
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

		// A custom collector registered through the facade is immediately
		// selectable from scenario JSON.
		err = sb.RegisterMetric(sb.RegistryMetric{
			Name: "facade-test-rounds",
			Doc:  "registered through the facade in a test",
			Build: func(sb.RegistryParams) (sb.MetricCollector, error) {
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

// roundCounter is a minimal custom collector exercising the extension
// hook: it counts rounds through the facade-exported hook types.
type roundCounter struct {
	sb.NopObserver
	rounds int
}

func (c *roundCounter) Name() string                  { return "facade-test-rounds" }
func (c *roundCounter) OnRoundEnd(int, sb.MetricView) { c.rounds++ }
func (c *roundCounter) Summarize() sb.MetricSummary {
	return sb.MetricSummary{Name: "facade-test-rounds", Kind: "scalar",
		Scalars: map[string]int{"rounds": c.rounds}}
}
