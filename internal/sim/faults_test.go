package sim

import (
	"context"
	"reflect"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
)

// faultSpec builds a run of greedyOldest against random traffic on a
// 12-node path, optionally under a fault model.
func faultSpec(t *testing.T, fm faults.Model, extra ...Option) Spec {
	t.Helper()
	nw := network.MustPath(12)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := extra
	if fm != nil {
		if err := fm.Reset(nw, 7); err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithFaults(fm))
	}
	return NewSpec(nw, &greedyOldest{}, adv, 300, opts...)
}

// TestZeroFaultEqualsNoFault is the acceptance gate at the engine level:
// attaching a zero-probability drop model changes nothing — not one
// scalar, not one metric summary — relative to no fault model at all.
func TestZeroFaultEqualsNoFault(t *testing.T) {
	base, err := Run(context.Background(), faultSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := faults.NewDrop(rat.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(context.Background(), faultSpec(t, zero))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, faulted) {
		t.Fatalf("p=0 drop model perturbed the run:\nbase:    %+v\nfaulted: %+v", base, faulted)
	}
}

// TestDropConservation checks the packet ledger under real loss: every
// injected packet is delivered, dropped, or residual, and the delivery
// collector agrees with the Result scalars.
func TestDropConservation(t *testing.T) {
	dm, err := faults.NewDrop(rat.New(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	links := newLinkForwards(12) // faultSpec's path(12)
	res, err := Run(context.Background(), faultSpec(t, dm,
		WithMetrics(metrics.NewDelivery(), metrics.NewGoodput(64, 16, 300), metrics.NewDropRate(64, 16, 300)),
		WithObservers(links)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("p=1/5 over 300 rounds dropped nothing")
	}
	if res.Injected != res.Delivered+res.Dropped+res.Residual {
		t.Fatalf("ledger violated: injected %d ≠ delivered %d + dropped %d + residual %d",
			res.Injected, res.Delivered, res.Dropped, res.Residual)
	}
	del := res.Metrics[metrics.NameDelivery]
	for key, want := range map[string]int{
		"injected":  res.Injected,
		"delivered": res.Delivered,
		"dropped":   res.Dropped,
		"in_flight": res.Residual,
	} {
		if got := del.Scalar(key); got != want {
			t.Errorf("delivery.%s = %d, want %d", key, got, want)
		}
	}
	gp := res.Metrics[metrics.NameGoodput]
	if got := gp.Scalar("delivered"); got != res.Delivered {
		t.Errorf("goodput.delivered = %d, want %d", got, res.Delivered)
	}
	if got := gp.Scalar("injected"); got != res.Injected {
		t.Errorf("goodput.injected = %d, want %d", got, res.Injected)
	}
	dr := res.Metrics[metrics.NameDropRate]
	if got := dr.Scalar("dropped"); got != res.Dropped {
		t.Errorf("drop_rate.dropped = %d, want %d", got, res.Dropped)
	}
	// Dropped packets consume their link: total forwards covers them.
	if got, totalForwards := dr.Scalar("forwards"), links.total(); got != totalForwards {
		t.Errorf("drop_rate.forwards = %d, want %d", got, totalForwards)
	}
}

// TestNodeCrashNullifiesForwards checks that a crashed node forwards
// nothing during its window (an OnForward observer sees no move from it)
// and that the run still makes progress elsewhere.
func TestNodeCrashNullifiesForwards(t *testing.T) {
	nw := network.MustPath(6)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := faults.NewNodeCrash(2, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Reset(nw, 3); err != nil {
		t.Fatal(err)
	}
	links := newLinkForwards(nw.Len())
	e, err := NewEngine(NewSpec(nw, &greedyOldest{}, adv, 50, WithFaults(crash), WithObservers(links)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if links.perLink[2] != 0 {
		t.Fatalf("crashed node forwarded %d packets during its outage", links.perLink[2])
	}
	if res.Dropped != 0 {
		t.Fatalf("node_crash dropped %d packets in transit", res.Dropped)
	}
	// The node upstream of the crash keeps forwarding into it.
	if links.perLink[1] == 0 {
		t.Fatal("upstream of the crashed node forwarded nothing")
	}
}

// TestFaultedRunIsDeterministic replays the same faulted spec and demands
// identical Results, including metric summaries.
func TestFaultedRunIsDeterministic(t *testing.T) {
	run := func() Result {
		fm, err := faults.NewLinkFlap(rat.New(1, 3), 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), faultSpec(t, fm,
			WithMetrics(metrics.NewDelivery(), metrics.NewDropRate(64, 16, 300))))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same faulted spec produced different results:\n%+v\n%+v", a, b)
	}
}
