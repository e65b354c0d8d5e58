package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// TestHPTSMatchesReference: the indexed Decide returns exactly the
// reference transcription's decisions, element for element and in order,
// on random configurations over every hierarchy shape, round offset,
// bandwidth and ablation setting. Each configuration is handed to freshly
// attached protocols and then evolved by the decisions for a few rounds,
// so later views carry the protocol's own LIFO structure rather than only
// fresh random buffers, and the index follows each step's delta.
func TestHPTSMatchesReference(t *testing.T) {
	for _, shape := range []struct{ m, ell int }{{8, 1}, {2, 3}, {3, 2}, {4, 2}, {16, 2}, {4, 4}, {2, 4}} {
		for _, b := range []int{1, 2, 3} {
			for _, ablate := range []bool{false, true} {
				name := fmt.Sprintf("m=%d_ell=%d_B=%d_ablate=%t", shape.m, shape.ell, b, ablate)
				t.Run(name, func(t *testing.T) {
					h, err := NewHierarchy(shape.m, shape.ell)
					if err != nil {
						t.Fatal(err)
					}
					nw := network.MustPath(h.N(), network.WithUniformBandwidth(b))
					var opts []HPTSOption
					if ablate {
						opts = append(opts, HPTSAblatePreBad())
					}
					got := NewHPTS(shape.ell, opts...)
					want := &refHPTS{ell: shape.ell, ablatePreBad: ablate}
					rng := rand.New(rand.NewSource(int64(h.N()*100 + b*10 + len(opts))))
					for trial := 0; trial < 40; trial++ {
						for _, p := range []sim.Protocol{got, want} {
							if err := p.Attach(nw, fullBound(2), nil); err != nil {
								t.Fatal(err)
							}
						}
						view := randomConfig(nw, rng, 1+trial%6)
						view.round = rng.Intn(2 * shape.ell)
						for step := 0; step < 2*shape.ell; step++ {
							gd, err := got.Decide(view)
							if err != nil {
								t.Fatal(err)
							}
							wd, err := want.Decide(view)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(gd, wd) {
								t.Fatalf("trial %d round %d: decisions diverge\n got  %v\n want %v", trial, view.round, gd, wd)
							}
							view = applyForwards(view, gd)
						}
					}
				})
			}
		}
	}
}

// execLog records every move and every post-round load vector of a run.
type execLog struct {
	metrics.NopObserver
	buf []byte
}

func (d *execLog) OnForward(round int, moves []metrics.Move) {
	for _, m := range moves {
		d.buf = fmt.Appendf(d.buf, "F|%d|%d|%d|%d|%t|%t|", round, m.Pkt.ID, m.From, m.To, m.Delivered, m.Dropped)
	}
}

func (d *execLog) OnRoundEnd(round int, v metrics.View) {
	d.buf = fmt.Appendf(d.buf, "R|%d|", round)
	for i := 0; i < v.Net().Len(); i++ {
		d.buf = fmt.Appendf(d.buf, "%d,", v.Load(network.NodeID(i)))
	}
}

// transcript runs p on nw for the given rounds against the random
// adversary (bound, dests, seed), under fm when it is not nil, and
// returns the run's execLog.
func transcript(t testing.TB, nw *network.Network, p sim.Protocol, bound adversary.Bound, dests []network.NodeID, seed int64, rounds int, fm faults.Model) []byte {
	t.Helper()
	adv, err := adversary.NewRandom(nw, bound, dests, seed)
	if err != nil {
		t.Fatal(err)
	}
	d := &execLog{}
	opts := []sim.Option{sim.WithObservers(d)}
	if fm != nil {
		opts = append(opts, sim.WithFaults(fm))
	}
	if _, err := sim.Run(context.Background(), sim.NewSpec(nw, p, adv, rounds, opts...)); err != nil {
		t.Fatal(err)
	}
	return d.buf
}

// TestHPTSExecutionMatchesReference runs cells shaped like the benchmark's
// HPTS workload (path(256), random traffic over 255 destinations, ℓ ∈ {2, 4}
// at ρ = 1/ℓ, 320 rounds) under the indexed protocol and the reference and
// requires identical executions, move for move and load for load.
func TestHPTSExecutionMatchesReference(t *testing.T) {
	nw := network.MustPath(256)
	dests := make([]network.NodeID, 255)
	for i := range dests {
		dests[i] = network.NodeID(i + 1)
	}
	for _, ell := range []int{2, 4} {
		bound := adversary.Bound{Rho: rat.New(1, int64(ell)), Sigma: 2}
		for _, seed := range []int64{1, 2} {
			got := transcript(t, nw, NewHPTS(ell), bound, dests, seed, 320, nil)
			if want := transcript(t, nw, &refHPTS{ell: ell}, bound, dests, seed, 320, nil); !bytes.Equal(got, want) {
				t.Errorf("ℓ=%d seed %d: execution diverges from the reference", ell, seed)
			}
		}
	}
}

// FuzzHPTSExecution runs one cell under the indexed HPTS and under
// refHPTS and requires identical executions, move for move and load for
// load. A cell is a hierarchy shape m^ℓ ≤ 64 on a path of uniform
// bandwidth B ∈ {1, 2}, random traffic to every node but the first at
// ρ = 1/ℓ and σ ≤ 3, up to 200 rounds, and a fault model: none, drop at p or
// link_flap at p (period 4, down 2), with p a multiple of 1/8. Faults
// reach the index as delta the pinned corpus never produces: moves
// dropped in transit, and decisions nullified on a downed link.
func FuzzHPTSExecution(f *testing.F) {
	// The execution test's four configurations, on the largest path each
	// ℓ decodes to, then faulted and capacitated cells.
	for _, seed := range []int64{1, 2} {
		f.Add(uint8(6), uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), uint8(199), seed)
		f.Add(uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), uint8(2), uint8(199), seed)
	}
	f.Add(uint8(6), uint8(1), uint8(0), uint8(1), uint8(2), uint8(2), uint8(199), int64(3))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(149), int64(4))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(2), uint8(4), uint8(2), uint8(199), int64(5))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(2), uint8(6), uint8(1), uint8(199), int64(6))
	f.Add(uint8(14), uint8(0), uint8(1), uint8(1), uint8(3), uint8(2), uint8(99), int64(7))
	f.Add(uint8(0), uint8(4), uint8(1), uint8(2), uint8(8), uint8(3), uint8(199), int64(8))
	f.Fuzz(func(t *testing.T, mRaw, ellRaw, bwRaw, faultRaw, pRaw, sigmaRaw, roundsRaw uint8, seed int64) {
		ell := 1 + int(ellRaw)%6
		mMax := 2
		for pow(mMax+1, ell) <= 64 {
			mMax++
		}
		h, err := NewHierarchy(2+int(mRaw)%(mMax-1), ell)
		if err != nil {
			t.Fatal(err)
		}
		nw := network.MustPath(h.N(), network.WithUniformBandwidth(1+int(bwRaw)%2))
		dests := make([]network.NodeID, h.N()-1)
		for i := range dests {
			dests[i] = network.NodeID(i + 1)
		}
		bound := adversary.Bound{Rho: rat.New(1, int64(ell)), Sigma: int(sigmaRaw) % 4}
		prob := rat.New(int64(pRaw)%9, 8)
		rounds := 1 + int(roundsRaw)%200
		var fm faults.Model
		switch faultRaw % 3 {
		case 1:
			fm, err = faults.NewDrop(prob)
		case 2:
			fm, err = faults.NewLinkFlap(prob, 4, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fm != nil {
			// The models are pure functions of (seed, round, link, packet)
			// once reset, so both runs can share one.
			if err := fm.Reset(nw, seed); err != nil {
				t.Fatal(err)
			}
		}
		got := transcript(t, nw, NewHPTS(ell), bound, dests, seed, rounds, fm)
		if want := transcript(t, nw, &refHPTS{ell: ell}, bound, dests, seed, rounds, fm); !bytes.Equal(got, want) {
			t.Errorf("m=%d ℓ=%d B=%d fault %d p=%v σ=%d rounds %d seed %d: execution diverges from the reference",
				h.M(), ell, nw.Bandwidth(0), faultRaw%3, prob, bound.Sigma, rounds, seed)
		}
	})
}

// pow returns m^k.
func pow(m, k int) int {
	p := 1
	for range k {
		p *= m
	}
	return p
}

// hptsTrajectory returns a changing path(256) configuration as the views
// of rounds+1 consecutive rounds of HPTS at ℓ: a random configuration of
// about two packets per node, then each round's decisions applied
// (applyForwards) and the load topped back up with fresh random packets,
// all from fixed seeds. HPTS is deterministic, so a fresh instance that
// decides the views in order from the first sees a truthful delta.
func hptsTrajectory(b *testing.B, ell, rounds int) []*fakeView {
	nw := network.MustPath(256)
	rng := rand.New(rand.NewSource(7))
	view := randomConfig(nw, rng, 4)
	load, id := len(view.accepted), packet.ID(len(view.accepted)+1)
	p := NewHPTS(ell)
	if err := p.Attach(nw, fullBound(2), nil); err != nil {
		b.Fatal(err)
	}
	views := []*fakeView{view}
	for range rounds {
		d, err := p.Decide(view)
		if err != nil {
			b.Fatal(err)
		}
		view = applyForwards(view, d)
		for _, m := range view.moved {
			if m.Delivered {
				load--
			}
		}
		for ; load < len(views[0].accepted); load++ {
			src := network.NodeID(rng.Intn(nw.Len() - 1))
			pk := packet.Packet{ID: id, Src: src, Dst: src + 1 + network.NodeID(rng.Intn(nw.Len()-1-int(src)))}
			id++
			view.pkts[src] = append(view.pkts[src], pk)
			view.accepted = append(view.accepted, pk)
		}
		views = append(views, view)
	}
	return views
}

// BenchmarkHPTSDecide measures one HPTS forwarding decision on a loaded,
// changing path(256): each op decides the next view of a precomputed
// trajectory (hptsTrajectory), so the index follows a real round's delta.
// Every 64 ops the protocol is attached afresh and decides the
// trajectory's first view, with the timer stopped.
func BenchmarkHPTSDecide(b *testing.B) {
	const cycle = 64
	for _, ell := range []int{2, 4} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			views := hptsTrajectory(b, ell, cycle)
			p := NewHPTS(ell)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := 1 + i%cycle
				if k == 1 {
					b.StopTimer()
					if err := p.Attach(views[0].nw, fullBound(2), nil); err != nil {
						b.Fatal(err)
					}
					if _, err := p.Decide(views[0]); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := p.Decide(views[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
