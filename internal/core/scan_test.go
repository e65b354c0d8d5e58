package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

func fullBound(sigma int) adversary.Bound {
	return adversary.Bound{Rho: rat.One, Sigma: sigma}
}

// fakeView is a synthetic configuration for white-box tests of the
// activation scans, bypassing the engine. Its delta is truthful: a built
// configuration reports every packet as accepted (acceptAll), so its
// first Decide must go to a freshly attached protocol, and applyForwards
// reports the moves that produced the next configuration. Its buffers are
// fixed once it is handed to a protocol: Occupied lists them on first use.
type fakeView struct {
	nw       *network.Network
	round    int
	pkts     [][]packet.Packet
	accepted []packet.Packet
	moved    []metrics.Move
	occupied []network.NodeID
}

var _ sim.View = (*fakeView)(nil)

func (f *fakeView) Round() int                               { return f.round }
func (f *fakeView) Net() *network.Network                    { return f.nw }
func (f *fakeView) Packets(v network.NodeID) []packet.Packet { return f.pkts[v] }
func (f *fakeView) Load(v network.NodeID) int                { return len(f.pkts[v]) }
func (f *fakeView) Bandwidth(v network.NodeID) int           { return f.nw.Bandwidth(v) }
func (f *fakeView) Occupied() []network.NodeID {
	if f.occupied == nil {
		for v, pkts := range f.pkts {
			if len(pkts) > 0 {
				f.occupied = append(f.occupied, network.NodeID(v))
			}
		}
	}
	return f.occupied
}
func (f *fakeView) Accepted() []packet.Packet { return f.accepted }
func (f *fakeView) Moved() []metrics.Move     { return f.moved }

// acceptAll reports every buffered packet as accepted this round, the
// delta of a configuration built from empty buffers.
func (f *fakeView) acceptAll() *fakeView {
	for _, pkts := range f.pkts {
		f.accepted = append(f.accepted, pkts...)
	}
	return f
}

// randomConfig populates a fake view with random packets on a path,
// destinations strictly beyond their node.
func randomConfig(nw *network.Network, rng *rand.Rand, maxPerNode int) *fakeView {
	n := nw.Len()
	f := &fakeView{nw: nw, pkts: make([][]packet.Packet, n)}
	id := packet.ID(1)
	for v := 0; v < n-1; v++ {
		k := rng.Intn(maxPerNode + 1)
		for i := 0; i < k; i++ {
			dst := network.NodeID(v + 1 + rng.Intn(n-1-v))
			f.pkts[v] = append(f.pkts[v], packet.Packet{ID: id, Src: network.NodeID(v), Dst: dst})
			id++
		}
	}
	return f.acceptAll()
}

// applyForwards simulates one simultaneous forwarding step on the fake
// view, returning the next configuration (delivered packets vanish) with
// the step's moves as its delta.
func applyForwards(f *fakeView, decisions []sim.Forward) *fakeView {
	next := &fakeView{nw: f.nw, round: f.round + 1, pkts: make([][]packet.Packet, len(f.pkts))}
	moved := make(map[packet.ID]network.NodeID, len(decisions))
	for _, d := range decisions {
		moved[d.Pkt] = d.From
	}
	for v := range f.pkts {
		for _, p := range f.pkts[v] {
			if from, ok := moved[p.ID]; ok && from == network.NodeID(v) {
				to := f.nw.Next(from)
				next.moved = append(next.moved, metrics.Move{Pkt: p, From: from, To: to, Delivered: to == p.Dst})
				continue
			}
			next.pkts[v] = append(next.pkts[v], p)
		}
	}
	// Place arrivals after survivors (they are the newest — LIFO order).
	for _, m := range next.moved {
		if !m.Delivered {
			next.pkts[m.To] = append(next.pkts[m.To], m.Pkt)
		}
	}
	return next
}

// TestQuickPPTSScanFeasible is Lemma B.1 as a property: on random
// configurations, the Algorithm 2 sweep activates at most one pseudo-buffer
// per node.
func TestQuickPPTSScanFeasible(t *testing.T) {
	nw := network.MustPath(12)
	p := NewPPTS()
	if err := p.Attach(nw, fullBound(2), nil); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		view := randomConfig(nw, rng, 4)
		decisions, err := p.Decide(view)
		if err != nil {
			return false
		}
		seen := make(map[network.NodeID]bool)
		for _, d := range decisions {
			if seen[d.From] {
				return false
			}
			seen[d.From] = true
			// The forwarded packet must exist at the node.
			found := false
			for _, pk := range view.pkts[d.From] {
				if pk.ID == d.Pkt {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickPPTSForwardingReducesBadness is the heart of Proposition 3.2
// (via Lemma 3.4) as a property: applying one PPTS forwarding step to a
// random configuration never increases any buffer's badness, and strictly
// decreases it wherever it was positive.
func TestQuickPPTSForwardingReducesBadness(t *testing.T) {
	nw := network.MustPath(10)
	p := NewPPTS()
	if err := p.Attach(nw, fullBound(2), nil); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		view := randomConfig(nw, rng, 3)
		before := make([]int, nw.Len())
		for v := 0; v < nw.Len(); v++ {
			before[v] = PathBadness(view, network.NodeID(v))
		}
		decisions, err := p.Decide(view)
		if err != nil {
			return false
		}
		after := applyForwards(view, decisions)
		for v := 0; v < nw.Len(); v++ {
			b := PathBadness(after, network.NodeID(v))
			if b > before[v] {
				return false // badness may never increase (Lemma 3.4)
			}
			if before[v] > 0 && b >= before[v] {
				return false // strict decrease where positive (Prop 3.2 proof)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickHPTSDecideFeasible: the HPTS activation (FormPaths +
// ActivatePreBad) is feasible on random configurations at every phase
// offset (Lemma 4.7).
func TestQuickHPTSDecideFeasible(t *testing.T) {
	h, err := NewHierarchy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.MustPath(h.N())
	p := NewHPTS(3)
	f := func(seed int64, roundRaw uint8) bool {
		if err := p.Attach(nw, fullBound(2), nil); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		view := randomConfig(nw, rng, 3)
		view.round = int(roundRaw) % 6
		decisions, err := p.Decide(view)
		if err != nil {
			return false
		}
		seen := make(map[network.NodeID]bool)
		for _, d := range decisions {
			if seen[d.From] {
				return false
			}
			seen[d.From] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
