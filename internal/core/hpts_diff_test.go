package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// TestHPTSMatchesReference: the indexed Decide returns exactly the
// reference transcription's decisions, element for element and in order,
// on random configurations over every hierarchy shape, round offset,
// bandwidth and ablation setting. Each configuration is then evolved by the
// decisions for a few rounds, so later views carry the protocol's own
// LIFO structure rather than only fresh random buffers.
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
					for _, p := range []sim.Protocol{got, want} {
						if err := p.Attach(nw, fullBound(2), nil); err != nil {
							t.Fatal(err)
						}
					}
					rng := rand.New(rand.NewSource(int64(h.N()*100 + b*10 + len(opts))))
					for trial := 0; trial < 40; trial++ {
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
		d.buf = fmt.Appendf(d.buf, "F|%d|%d|%d|%d|%t|", round, m.Pkt.ID, m.From, m.To, m.Delivered)
	}
}

func (d *execLog) OnRoundEnd(round int, v metrics.View) {
	d.buf = fmt.Appendf(d.buf, "R|%d|", round)
	for i := 0; i < v.Net().Len(); i++ {
		d.buf = fmt.Appendf(d.buf, "%d,", v.Load(network.NodeID(i)))
	}
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
		for _, seed := range []int64{1, 2} {
			run := func(p sim.Protocol) []byte {
				adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, int64(ell)), Sigma: 2}, dests, seed)
				if err != nil {
					t.Fatal(err)
				}
				d := &execLog{}
				if _, err := sim.Run(context.Background(), sim.NewSpec(nw, p, adv, 320, sim.WithObservers(d))); err != nil {
					t.Fatal(err)
				}
				return d.buf
			}
			if got, want := run(NewHPTS(ell)), run(&refHPTS{ell: ell}); !bytes.Equal(got, want) {
				t.Errorf("ℓ=%d seed %d: execution diverges from the reference", ell, seed)
			}
		}
	}
}

// loadedPath256 is a fixed, heavily loaded path(256) view for speed
// measurements.
func loadedPath256() *fakeView {
	return randomConfig(network.MustPath(256), rand.New(rand.NewSource(7)), 8)
}

// BenchmarkHPTSDecide measures one HPTS forwarding decision on a loaded
// path(256), averaged over a phase's level schedule.
func BenchmarkHPTSDecide(b *testing.B) {
	for _, ell := range []int{2, 4} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			view := loadedPath256()
			p := NewHPTS(ell)
			if err := p.Attach(view.nw, fullBound(2), nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view.round = i % ell
				if _, err := p.Decide(view); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
