package smallbuffers_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/opt"
	"smallbuffers/internal/rat"
)

// TestPublicAPIEndToEnd drives the library end to end: build a topology,
// construct adversaries, run every protocol family, and check the paper's
// bounds. It uses the facade where it has the constructor and the
// internal packages where it does not.
func TestPublicAPIEndToEnd(t *testing.T) {
	nw, err := sb.NewPath(64)
	if err != nil {
		t.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}

	t.Run("PPTS_random", func(t *testing.T) {
		dests := []sb.NodeID{40, 50, 60, 63}
		adv, err := sb.NewRandomAdversary(nw, bound, dests, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewPPTS(), adv, 500,
			sb.WithInvariants(sb.MaxLoadInvariant(nw, 1+4+2))))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLoad > 1+4+2 {
			t.Errorf("PPTS exceeded Proposition 3.2: %d > %d", res.MaxLoad, 7)
		}
	})

	t.Run("PTS_burst", func(t *testing.T) {
		adv, err := adversary.PTSBurst(nw, bound, 300)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, core.NewPTS(core.WithDrain()), adv, 300))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLoad > 2+2 {
			t.Errorf("PTS exceeded Proposition 3.1: %d > 4", res.MaxLoad)
		}
		if res.Delivered == 0 {
			t.Error("drain delivered nothing")
		}
	})

	t.Run("HPTS", func(t *testing.T) {
		adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sb.NewHierarchy(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		_ = h
		res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewHPTS(2), adv, 800))
		if err != nil {
			t.Fatal(err)
		}
		if limit := 2*8 + 2 + 1; res.MaxLoad > limit {
			t.Errorf("HPTS exceeded Theorem 4.1: %d > %d", res.MaxLoad, limit)
		}
	})

	t.Run("greedy_baselines", func(t *testing.T) {
		if got := len(baseline.All()); got != 6 {
			t.Fatalf("baseline.All = %d policies, want 6", got)
		}
		adv := adversary.NewStream(bound, 0, 63)
		res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewGreedy(sb.NTG), adv, 200))
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered == 0 {
			t.Error("greedy delivered nothing")
		}
	})
}

func TestPublicAPITrees(t *testing.T) {
	tree, err := sb.SpiderTree(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Sinks()[0]
	dests := []sb.NodeID{1, 2, 3, root}
	dprime := sb.DestinationDepth(tree, dests)
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}
	adv, err := sb.TreeBurstAdversary(tree, bound, dests, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.RunContext(context.Background(), sb.NewSpec(tree, sb.NewTreePPTS(), adv, 200))
	if err != nil {
		t.Fatal(err)
	}
	if limit := 1 + dprime + 1; res.MaxLoad > limit {
		t.Errorf("TreePPTS exceeded Proposition 3.5: %d > %d", res.MaxLoad, limit)
	}
}

func TestPublicAPILowerBound(t *testing.T) {
	lb, err := sb.NewLowerBoundAdversary(4, 2, sb.NewRat(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := lb.Network()
	if err != nil {
		t.Fatal(err)
	}
	tracker := sb.NewStalenessTracker(lb)
	res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewPPTS(), lb, lb.Rounds(),
		sb.WithObservers(tracker)))
	if err != nil {
		t.Fatal(err)
	}
	if floor := int(lb.PredictedBound().Ceil()); res.MaxLoad < floor {
		t.Errorf("Theorem 5.1 floor missed: %d < %d", res.MaxLoad, floor)
	}
	if tracker.Err != nil {
		t.Errorf("staleness lemmas: %v", tracker.Err)
	}
}

func TestPublicAPIVerifier(t *testing.T) {
	nw, err := sb.NewPath(8)
	if err != nil {
		t.Fatal(err)
	}
	good := adversary.NewStream(sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}, 0, 7)
	if err := adversary.VerifyPrefix(nw, good, 100); err != nil {
		t.Errorf("stream rejected: %v", err)
	}
	// A schedule violating its declared bound is caught.
	bad := adversary.NewSchedule().AtN(0, 5, 0, 7).Build(sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1})
	if err := adversary.VerifyPrefix(nw, bad, 5); err == nil {
		t.Error("violation not caught")
	}
}

func TestPublicAPITraceAndFigure(t *testing.T) {
	nw, err := sb.NewPath(16)
	if err != nil {
		t.Fatal(err)
	}
	rec := sb.NewTraceRecorder()
	adv := adversary.NewStream(sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 0}, 0, 15)
	if _, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewGreedy(sb.FIFO), adv, 50,
		sb.WithObservers(rec))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.RenderHeatmap(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "occupancy heatmap") {
		t.Error("heatmap missing header")
	}
	buf.Reset()
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"loads\"") {
		t.Error("JSON missing loads")
	}

	buf.Reset()
	h, err := sb.NewHierarchy(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.RenderFigure1(&buf, h, 0, 13); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "virtual trajectory") {
		t.Error("figure missing trajectory")
	}
}

func TestPublicAPIOptimal(t *testing.T) {
	nw, err := sb.NewPath(5)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewSchedule().At(0, 0, 4).At(0, 1, 4).Build(sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1})
	res, err := opt.Solve(opt.Config{Net: nw, Adversary: adv, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptMaxLoad != 1 {
		t.Errorf("optimal = %d, want 1", res.OptMaxLoad)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if got := len(sb.Experiments()); got != 14 {
		t.Fatalf("Experiments = %d, want 14", got)
	}
	e := sb.Experiments()[0]
	if e.ID != "F1" {
		t.Fatalf("first experiment is %s, want F1", e.ID)
	}
	var buf bytes.Buffer
	out, err := e.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Error("F1 failed")
	}
}

func TestParseRat(t *testing.T) {
	r, err := rat.Parse("3/4")
	if err != nil || !r.Equal(sb.NewRat(3, 4)) {
		t.Errorf("rat.Parse = %v, %v", r, err)
	}
}
