package baseline

import (
	"context"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

func TestPolicyOrdering(t *testing.T) {
	nw := network.MustPath(10)
	// a: injected earlier, arrived later, farther to go.
	a := packet.Packet{ID: 1, Inject: 0, Arrived: 5, Dst: 9}
	b := packet.Packet{ID: 2, Inject: 3, Arrived: 2, Dst: 6}
	at := network.NodeID(4)
	tests := []struct {
		policy Policy
		aFirst bool
	}{
		{FIFO{}, false}, // b arrived earlier
		{LIFO{}, true},  // a arrived later
		{LIS{}, true},   // a injected earlier
		{SIS{}, false},  // b injected later
		{NTG{}, false},  // b is nearer (dist 2 vs 5)
		{FTG{}, true},   // a is farther
	}
	for _, tt := range tests {
		t.Run(tt.policy.Name(), func(t *testing.T) {
			if got := tt.policy.Less(nw, at, a, b); got != tt.aFirst {
				t.Errorf("%s.Less(a,b) = %v, want %v", tt.policy.Name(), got, tt.aFirst)
			}
		})
	}
}

func TestGreedyDeliversEverything(t *testing.T) {
	nw := network.MustPath(12)
	for _, g := range All() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, nil, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background(), sim.NewSpec(nw, g, adv, 400))
			if err != nil {
				t.Fatal(err)
			}
			if res.Injected == 0 {
				t.Fatal("no traffic")
			}
			// Greedy protocols at rate 1/2 on a line are stable: almost all
			// packets should be delivered within the horizon.
			if res.Residual > 14 {
				t.Errorf("residual %d of %d injected", res.Residual, res.Injected)
			}
		})
	}
}

func TestGreedyWorksOnTrees(t *testing.T) {
	tree, err := network.SpiderTree(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(tree, adversary.Bound{Rho: rat.New(1, 2), Sigma: 1}, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.NewSpec(tree, NewGreedy(LIS{}), adv, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered on tree")
	}
}

func TestGreedyName(t *testing.T) {
	if got := NewGreedy(NTG{}).Name(); got != "Greedy-NTG" {
		t.Errorf("Name = %q", got)
	}
}

func TestGreedyAttachNil(t *testing.T) {
	if err := NewGreedy(FIFO{}).Attach(nil, adversary.Bound{}, nil); err == nil {
		t.Error("nil network accepted")
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	// Two packets identical under FIFO (same arrival): lowest ID wins.
	nw := network.MustPath(4)
	adv := adversary.NewSchedule().At(0, 0, 3).At(0, 0, 2).Build(adversary.Bound{Rho: rat.One, Sigma: 1})
	g := NewGreedy(FIFO{})
	var firstMove packet.ID
	obs := &moveRecorder{first: &firstMove}
	if _, err := sim.Run(context.Background(), sim.NewSpec(nw, g, adv, 2, sim.WithObservers(obs))); err != nil {
		t.Fatal(err)
	}
	if firstMove != 0 {
		t.Errorf("first forwarded packet = #%d, want #0 (lowest ID)", firstMove)
	}
}

type moveRecorder struct {
	metrics.NopObserver
	first *packet.ID
	seen  bool
}

func (m *moveRecorder) OnForward(round int, moves []metrics.Move) {
	if !m.seen && len(moves) > 0 {
		*m.first = moves[0].Pkt.ID
		m.seen = true
	}
}

func TestAllReturnsSixPolicies(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("All() = %d protocols, want 6", len(all))
	}
	seen := make(map[string]bool)
	for _, g := range all {
		if seen[g.Name()] {
			t.Errorf("duplicate %s", g.Name())
		}
		seen[g.Name()] = true
	}
}
