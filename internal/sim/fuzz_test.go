package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// chaosProtocol forwards a random subset of nodes, each a random buffered
// packet — every decision it makes is legal, so the engine must accept all
// of them and conserve packets regardless.
type chaosProtocol struct {
	rng *rand.Rand
	nw  *network.Network
}

func (c *chaosProtocol) Name() string { return "chaos" }

func (c *chaosProtocol) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	c.nw = nw
	return nil
}

func (c *chaosProtocol) Decide(v View) ([]Forward, error) {
	var out []Forward
	for i := 0; i < c.nw.Len(); i++ {
		node := network.NodeID(i)
		if c.nw.Next(node) == network.None {
			continue
		}
		pkts := v.Packets(node)
		if len(pkts) == 0 || c.rng.Intn(3) == 0 {
			continue
		}
		out = append(out, Forward{From: node, Pkt: pkts[c.rng.Intn(len(pkts))].ID})
	}
	return out, nil
}

// TestQuickChaosConservation drives random protocols against random bounded
// adversaries on random topologies: the engine must run clean and conserve
// every packet.
func TestQuickChaosConservation(t *testing.T) {
	f := func(seed int64, usePath bool, sig uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var nw *network.Network
		var err error
		if usePath {
			nw, err = network.NewPath(4 + rng.Intn(20))
		} else {
			nw, err = network.RandomTree(4+rng.Intn(20), rng)
		}
		if err != nil {
			return false
		}
		adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: int(sig % 4)}, nil, seed)
		if err != nil {
			return false
		}
		check := NewConservationCheck()
		_, err = Run(context.Background(), NewSpec(nw,
			&chaosProtocol{rng: rand.New(rand.NewSource(seed + 1))},
			adv, 80, WithObservers(check)))
		return err == nil && check.Err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConservationWithPhasedAcceptance covers the staging path.
func TestConservationWithPhasedAcceptance(t *testing.T) {
	nw := network.MustPath(8)
	adv := adversary.NewStream(adversary.Bound{Rho: rat.One, Sigma: 0}, 0, 7)
	proto := &phasedGreedy{}
	proto.phase = 3
	check := NewConservationCheck()
	if _, err := Run(context.Background(), NewSpec(nw, proto, adv, 50,
		WithObservers(check))); err != nil {
		t.Fatal(err)
	}
	if check.Err != nil {
		t.Error(check.Err)
	}
}

// TestConservationDetectsLoss ensures the checker actually fires: feed it a
// fabricated event stream that loses a packet.
func TestConservationDetectsLoss(t *testing.T) {
	nw := network.MustPath(4)
	check := NewConservationCheck()
	check.OnInject(0, []packet.Packet{{ID: 1, Src: 0, Dst: 3}})
	// Round ends with no delivery and an empty configuration: loss.
	eng, err := NewEngine(NewSpec(nw, &greedyOldest{}, adversary.Empty{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	check.OnRoundEnd(0, eng)
	if check.Err == nil {
		t.Error("loss not detected")
	}
}

// TestAdaptiveAdversaryIsConsulted verifies the engine calls the adaptive
// entry point with real loads.
func TestAdaptiveAdversaryIsConsulted(t *testing.T) {
	nw := network.MustPath(6)
	adv := &probeAdaptive{}
	if _, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 10)); err != nil {
		t.Fatal(err)
	}
	if adv.adaptiveCalls != 10 {
		t.Errorf("adaptive calls = %d, want 10", adv.adaptiveCalls)
	}
	if adv.plainCalls != 0 {
		t.Errorf("plain Inject called %d times", adv.plainCalls)
	}
	if !adv.sawLoad {
		t.Error("loads callback never reported a non-zero load")
	}
}

type probeAdaptive struct {
	adaptiveCalls int
	plainCalls    int
	sawLoad       bool
}

func (p *probeAdaptive) Bound() adversary.Bound {
	return adversary.Bound{Rho: rat.One, Sigma: 2}
}

func (p *probeAdaptive) Inject(round int) []packet.Injection {
	p.plainCalls++
	return nil
}

func (p *probeAdaptive) InjectAdaptive(round int, loads adversary.Loads) []packet.Injection {
	p.adaptiveCalls++
	for v := 0; v < 6; v++ {
		if loads(network.NodeID(v)) > 0 {
			p.sawLoad = true
		}
	}
	// Inject two packets per round so some buffer is occupied.
	return []packet.Injection{{Src: 0, Dst: 5}, {Src: 2, Dst: 5}}
}
