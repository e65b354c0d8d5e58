package lowerbound_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"smallbuffers/internal/core"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/sim"
)

// greedyProtocols returns a constructor for each of the registry's six
// greedy-* protocols, in name order.
func greedyProtocols(t *testing.T) []func() (sim.Protocol, error) {
	t.Helper()
	var out []func() (sim.Protocol, error)
	for _, name := range registry.ProtocolNames() {
		if !strings.HasPrefix(name, "greedy-") {
			continue
		}
		e, err := registry.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, func() (sim.Protocol, error) { return e.Build(nil) })
	}
	if len(out) != 6 {
		t.Fatalf("the registry has %d greedy-* protocols, want 6", len(out))
	}
	return out
}

// TestForcesLoadOnAllProtocols is the executable Theorem 5.1: every
// implemented protocol, greedy or peak-to-sink, accumulates at least the
// predicted load on the pattern.
func TestForcesLoadOnAllProtocols(t *testing.T) {
	adv0, err := lowerbound.New(4, 2, rat.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := adv0.Network()
	if err != nil {
		t.Fatal(err)
	}
	floor := int(adv0.PredictedBound().Ceil())
	if floor < 2 {
		t.Fatalf("test wants a non-trivial floor, got %d", floor)
	}
	protos := []sim.Protocol{
		core.NewPPTS(),
		core.NewPTS(core.WithDrain()),
	}
	for _, mk := range greedyProtocols(t) {
		proto, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, proto)
	}
	for _, proto := range protos {
		t.Run(proto.Name(), func(t *testing.T) {
			adv, err := lowerbound.New(4, 2, rat.New(3, 4))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background(), sim.NewSpec(nw, proto, adv, adv.Rounds()))
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxLoad < floor {
				t.Errorf("MaxLoad = %d < predicted floor %d", res.MaxLoad, floor)
			}
		})
	}
}

// TestStalenessLemmas replays Lemmas 5.2–5.5 during runs of E5's eight
// protocols (PPTS, PPTS with drain and the six greedy policies) over the
// pattern at each of E5's five (m, ℓ, ρ).
func TestStalenessLemmas(t *testing.T) {
	protos := []func() (sim.Protocol, error){
		func() (sim.Protocol, error) { return core.NewPPTS(), nil },
		func() (sim.Protocol, error) { return core.NewPPTS(core.PPTSWithDrain()), nil },
	}
	protos = append(protos, greedyProtocols(t)...)
	configs := []struct {
		m, ell int
		rho    rat.Rat
	}{
		{4, 2, rat.New(3, 4)},
		{8, 2, rat.New(1, 2)},
		{8, 2, rat.New(3, 4)},
		{12, 2, rat.New(3, 4)},
		{4, 3, rat.New(1, 2)},
	}
	for _, mk := range protos {
		proto, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for _, c := range configs {
				t.Run(fmt.Sprintf("m=%d_ell=%d_rho=%v", c.m, c.ell, c.rho), func(t *testing.T) {
					proto, err := mk()
					if err != nil {
						t.Fatal(err)
					}
					adv, err := lowerbound.New(c.m, c.ell, c.rho)
					if err != nil {
						t.Fatal(err)
					}
					nw, err := adv.Network()
					if err != nil {
						t.Fatal(err)
					}
					tracker := lowerbound.NewStalenessTracker(adv)
					if _, err := sim.Run(context.Background(), sim.NewSpec(nw, proto, adv, adv.Rounds(), sim.WithObservers(tracker))); err != nil {
						t.Fatal(err)
					}
					if tracker.Err != nil {
						t.Errorf("staleness lemma violated: %v", tracker.Err)
					}
					// Lemma 5.4: α-stale total over τ rounds is ≤ τ.
					if tracker.AlphaTotal() > adv.Rounds() {
						t.Errorf("α-stale total %d > rounds %d", tracker.AlphaTotal(), adv.Rounds())
					}
					// Lemma 5.5: per-epoch dichotomy (β burst or fresh growth).
					if err := tracker.Lemma55(); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}
