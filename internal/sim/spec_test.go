package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
)

func specFixture(t *testing.T, seed int64, opts ...Option) Spec {
	t.Helper()
	nw := network.MustPath(16)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewSpec(nw, &greedyOldest{}, adv, 200, opts...)
}

func TestSpecOptions(t *testing.T) {
	obs := &recordingObserver{}
	calls := 0
	inv := func(metrics.View) error { calls++; return nil }
	s := specFixture(t, 7,
		WithObservers(obs),
		WithInvariants(inv),
		WithVerifyAdversary())
	if len(s.observers) != 1 || len(s.invariants) != 1 || !s.verifyAdversary {
		t.Errorf("options not applied: %+v", s)
	}
	if s.Net() == nil || s.Protocol() == nil || s.Adversary() == nil || s.Rounds() != 200 {
		t.Error("accessors incomplete")
	}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 200 {
		t.Errorf("invariant ran %d times, want 200", calls)
	}
	if obs.roundEnds != 200 || obs.injects != res.Injected {
		t.Errorf("observer saw %d rounds / %d injects, want 200 / %d", obs.roundEnds, obs.injects, res.Injected)
	}
}

// Same Spec parameters + same adversary seed ⇒ byte-identical Result.
func TestSpecDeterminism(t *testing.T) {
	a, err := Run(context.Background(), specFixture(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), specFixture(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical specs diverged:\n%+v\n%+v", a, b)
	}
	c, err := Run(context.Background(), specFixture(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical results (suspicious fixture)")
	}
}

func TestCancelledContextStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, specFixture(t, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Injected != 0 {
		t.Errorf("pre-cancelled run injected %d packets", res.Injected)
	}

	// Cancel mid-run via an observer: the run must stop at the next round
	// boundary with a partial result.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	nw := network.MustPath(8)
	adv := adversary.NewStream(adversary.Bound{Rho: rat.One, Sigma: 0}, 0, 7)
	stop := &cancelAtRound{round: 9, cancel: cancel2}
	res2, err := Run(ctx2, NewSpec(nw, &greedyOldest{}, adv, 1_000_000, WithObservers(stop)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res2.Injected != 10 {
		t.Errorf("partial result injected = %d, want 10 (rounds 0–9)", res2.Injected)
	}
	if res2.Residual != res2.Injected-res2.Delivered {
		t.Errorf("partial residual %d inconsistent", res2.Residual)
	}
}

type cancelAtRound struct {
	metrics.NopObserver
	round  int
	cancel context.CancelFunc
}

func (c *cancelAtRound) OnRoundEnd(round int, _ metrics.View) {
	if round >= c.round {
		c.cancel()
	}
}

// TestDeadlineStopsRun bounds a run's wall time with a context deadline,
// the engine's only wall-clock budget.
func TestDeadlineStopsRun(t *testing.T) {
	nw := network.MustPath(8)
	adv := adversary.NewStream(adversary.Bound{Rho: rat.One, Sigma: 0}, 0, 7)
	slow := &slowProtocol{inner: &greedyOldest{}, delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, NewSpec(nw, slow, adv, 1_000_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

type slowProtocol struct {
	inner Protocol
	delay time.Duration
}

func (s *slowProtocol) Name() string { return s.inner.Name() }
func (s *slowProtocol) Attach(nw *network.Network, b adversary.Bound, d []network.NodeID) error {
	return s.inner.Attach(nw, b, d)
}
func (s *slowProtocol) Decide(v View) ([]Forward, error) {
	time.Sleep(s.delay)
	return s.inner.Decide(v)
}

// Step drives the engine one round at a time and agrees with Run.
func TestStepIncrementalDriving(t *testing.T) {
	want, err := Run(context.Background(), specFixture(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(specFixture(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		if r := eng.Round(); r != steps {
			t.Fatalf("Round() = %d before step %d", r, steps)
		}
		done, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps != 200 {
		t.Errorf("ran %d steps, want 200", steps)
	}
	// Step past the end is a no-op.
	if done, err := eng.Step(); !done || err != nil {
		t.Errorf("Step past end = (%v, %v), want (true, nil)", done, err)
	}
	if got := eng.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("stepped result differs from Run:\n%+v\n%+v", got, want)
	}
}

// Reset rebinds the engine and reproduces a fresh engine's results exactly,
// including across topologies of different sizes.
func TestResetReuse(t *testing.T) {
	eng, err := NewEngine(specFixture(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the same scenario on the reused engine.
	if err := eng.Reset(specFixture(t, 3)); err != nil {
		t.Fatal(err)
	}
	again, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("reused engine diverged:\n%+v\n%+v", first, again)
	}
	// Rebind to a larger topology, then a smaller one.
	big := network.MustPath(64)
	adv := adversary.NewStream(adversary.Bound{Rho: rat.One, Sigma: 0}, 0, 63)
	links := newLinkForwards(big.Len())
	if err := eng.Reset(NewSpec(big, &greedyOldest{}, adv, 100, WithObservers(links))); err != nil {
		t.Fatal(err)
	}
	bigRes, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Link v forwards the packets injected up to round 99 − v.
	if links.perLink[0] != 100 || links.perLink[62] != 38 || bigRes.Injected != 100 {
		t.Errorf("big run: %+v, forwards per link %v", bigRes, links.perLink)
	}
	fresh, err := Run(context.Background(), specFixture(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The earlier result must not be clobbered by the reuse.
	if !reflect.DeepEqual(first, fresh) {
		t.Errorf("prior result mutated by the engine's reuse:\n%+v\n%+v", first, fresh)
	}
	if err := eng.Reset(specFixture(t, 3)); err != nil {
		t.Fatal(err)
	}
	down, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, down) {
		t.Errorf("downsized reused engine diverged:\n%+v\n%+v", fresh, down)
	}
}

func TestResetValidation(t *testing.T) {
	eng, err := NewEngine(specFixture(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(Spec{}); err == nil {
		t.Error("Reset accepted an empty spec")
	}
	// A failed Reset must not leave the engine half-bound: rebinding to a
	// valid spec still works.
	if err := eng.Reset(specFixture(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
