package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// requireSameDecisions drives got and want over random configurations,
// each handed to both freshly attached and evolved by got's decisions for
// a few rounds, and requires the two to decide exactly alike, element for
// element and in order.
func requireSameDecisions(t *testing.T, got, want sim.Protocol, nw *network.Network, rng *rand.Rand, config func(maxPerNode int) *fakeView) {
	t.Helper()
	for trial := 0; trial < 40; trial++ {
		for _, p := range []sim.Protocol{got, want} {
			if err := p.Attach(nw, fullBound(2), nil); err != nil {
				t.Fatal(err)
			}
		}
		view := config(1 + trial%6)
		for step := 0; step < 4; step++ {
			gd, err := got.Decide(view)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := want.Decide(view)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gd, wd) {
				t.Fatalf("trial %d step %d: decisions diverge\n got  %v\n want %v", trial, step, gd, wd)
			}
			view = applyForwards(view, gd)
		}
	}
}

// TestPPTSMatchesReference: the indexed PPTS returns exactly refPPTS's
// decisions on random path configurations, drain on and off, at every
// bandwidth.
func TestPPTSMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 64} {
		for _, b := range []int{1, 2, 3} {
			for _, drain := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d_B=%d_drain=%t", n, b, drain), func(t *testing.T) {
					nw := network.MustPath(n, network.WithUniformBandwidth(b))
					got, want := NewPPTS(), &refPPTS{drainWhenIdle: drain}
					if drain {
						got = NewPPTS(PPTSWithDrain())
					}
					rng := rand.New(rand.NewSource(int64(n*100 + b*10)))
					requireSameDecisions(t, got, want, nw, rng, func(k int) *fakeView {
						return randomConfig(nw, rng, k)
					})
				})
			}
		}
	}
}

// randomTreeConfig populates a fake view with random packets on an
// in-forest: each packet's destination is a strict ancestor of its node,
// or its component's root when rootOnly is set.
func randomTreeConfig(nw *network.Network, rng *rand.Rand, maxPerNode int, rootOnly bool) *fakeView {
	f := &fakeView{nw: nw, pkts: make([][]packet.Packet, nw.Len())}
	id := packet.ID(1)
	for v := range f.pkts {
		var up []network.NodeID
		for u := nw.Next(network.NodeID(v)); u != network.None; u = nw.Next(u) {
			up = append(up, u)
		}
		if len(up) == 0 {
			continue
		}
		if rootOnly {
			up = up[len(up)-1:]
		}
		for k := rng.Intn(maxPerNode + 1); k > 0; k-- {
			f.pkts[v] = append(f.pkts[v], packet.Packet{ID: id, Src: network.NodeID(v), Dst: up[rng.Intn(len(up))]})
			id++
		}
	}
	return f.acceptAll()
}

// testForest returns an in-forest on n nodes whose last roots nodes are
// the roots; every other node hangs below a random higher-numbered one.
func testForest(n, roots, b int, rng *rand.Rand) (*network.Network, error) {
	parent := make([]network.NodeID, n)
	for v := range parent {
		parent[v] = network.None
		if v < n-roots {
			parent[v] = network.NodeID(v + 1 + rng.Intn(n-1-v))
		}
	}
	return network.NewForest(parent, network.WithUniformBandwidth(b))
}

// TestTreeProtocolsMatchReference: the indexed TreePPTS and TreePTS return
// exactly their references' decisions on random trees, a path and a forest
// with several roots, TreePTS with drain on and off, at every bandwidth.
func TestTreeProtocolsMatchReference(t *testing.T) {
	for _, b := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(b)))
		bw := network.WithUniformBandwidth(b)
		for _, topo := range []struct {
			name  string
			build func() (*network.Network, error)
		}{
			{"tree8", func() (*network.Network, error) { return network.RandomTree(8, rng, bw) }},
			{"tree40", func() (*network.Network, error) { return network.RandomTree(40, rng, bw) }},
			{"binary4", func() (*network.Network, error) { return network.BinaryTree(4, bw) }},
			{"path16", func() (*network.Network, error) { return network.NewPath(16, bw) }},
			{"forest", func() (*network.Network, error) { return testForest(48, 4, b, rng) }},
		} {
			name := topo.name
			nw, err := topo.build()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("TreePPTS_%s_B=%d", name, b), func(t *testing.T) {
				requireSameDecisions(t, NewTreePPTS(), &refTreePPTS{}, nw, rng, func(k int) *fakeView {
					return randomTreeConfig(nw, rng, k, false)
				})
			})
			for _, drain := range []bool{false, true} {
				t.Run(fmt.Sprintf("TreePTS_%s_B=%d_drain=%t", name, b, drain), func(t *testing.T) {
					got := NewTreePTS()
					if drain {
						got = NewTreePTS(TreePTSWithDrain())
					}
					requireSameDecisions(t, got, &refTreePTS{drainWhenIdle: drain}, nw, rng, func(k int) *fakeView {
						return randomTreeConfig(nw, rng, k, true)
					})
				})
			}
		}
	}
}

// TestPPTSExecutionMatchesReference runs cells shaped like the benchmark's
// big-path workload (path(4096), random traffic to the last d nodes at
// ρ = 1, σ = 2, 40 rounds) under the indexed PPTS and refPPTS and requires
// identical executions, move for move and load for load.
func TestPPTSExecutionMatchesReference(t *testing.T) {
	nw := network.MustPath(4096)
	for _, d := range []int{4, 16} {
		dests := make([]network.NodeID, d)
		for k := range dests {
			dests[k] = network.NodeID(nw.Len() - d + k)
		}
		for _, seed := range []int64{1, 2} {
			bound := adversary.Bound{Rho: rat.One, Sigma: 2}
			got := transcript(t, nw, NewPPTS(), bound, dests, seed, 40, nil)
			if want := transcript(t, nw, &refPPTS{}, bound, dests, seed, 40, nil); !bytes.Equal(got, want) {
				t.Errorf("d=%d seed %d: execution diverges from the reference", d, seed)
			}
		}
	}
}

// BenchmarkPPTSDecide measures one PPTS forwarding decision on a loaded
// path(4096) with 16 destinations at its end.
func BenchmarkPPTSDecide(b *testing.B) {
	nw := network.MustPath(4096)
	rng := rand.New(rand.NewSource(7))
	view := &fakeView{nw: nw, pkts: make([][]packet.Packet, nw.Len())}
	id := packet.ID(1)
	for v := 0; v < nw.Len()-16; v++ {
		for k := rng.Intn(4); k > 0; k-- {
			dst := network.NodeID(nw.Len() - 16 + rng.Intn(16))
			view.pkts[v] = append(view.pkts[v], packet.Packet{ID: id, Src: network.NodeID(v), Dst: dst})
			id++
		}
	}
	view.acceptAll()
	p := NewPPTS()
	if err := p.Attach(nw, fullBound(2), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.Decide(view); err != nil {
			b.Fatal(err)
		}
	}
}
