package adversary

import (
	"math/rand"
	"testing"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// refExcess is a direct transcription of the excess recursion in exact
// rationals, with the shaper primitive WouldExceed on top. It is kept as
// the oracle for Excess and its shaper (differential tests only).
type refExcess struct {
	nw     *network.Network
	rho    rat.Rat
	xi     []rat.Rat
	counts []int
}

func newRefExcess(nw *network.Network, rho rat.Rat) *refExcess {
	return &refExcess{nw: nw, rho: rho, xi: make([]rat.Rat, nw.Len()), counts: make([]int, nw.Len())}
}

// refCrossedBuffers returns the buffers of the injection's trajectory in
// route order, or nil when the destination is not reachable.
func refCrossedBuffers(nw *network.Network, in packet.Injection) []network.NodeID {
	route, err := nw.Route(in.Src, in.Dst)
	if err != nil {
		return nil
	}
	return route[:len(route)-1]
}

func (e *refExcess) Absorb(injections []packet.Injection) {
	for i := range e.counts {
		e.counts[i] = 0
	}
	for _, in := range injections {
		for _, v := range refCrossedBuffers(e.nw, in) {
			e.counts[v]++
		}
	}
	for v := range e.xi {
		next := e.xi[v].Add(rat.FromInt(int64(e.counts[v]))).Sub(e.rho)
		e.xi[v] = next.Max(rat.Zero)
	}
}

func (e *refExcess) At(v network.NodeID) rat.Rat { return e.xi[v] }

// WouldExceed reports whether one more packet crossing v, on top of the
// `already` packets admitted for v this round, would push ξ(v) above σ:
// max(0, ξ_prev + already + 1 − ρ) > σ.
func (e *refExcess) WouldExceed(v network.NodeID, already int, sigma int) bool {
	next := e.xi[v].Add(rat.FromInt(int64(already + 1))).Sub(e.rho)
	return rat.FromInt(int64(sigma)).Less(next)
}

// TestShaperMatchesRefExcess drives the shaper and refExcess with the same
// random candidate streams on paths and random trees. Every candidate must
// get the same admit decision, and every buffer the same ξ after every
// round. Alongside, Absorb and refExcess take every candidate unshaped,
// so excesses above σ are compared too.
func TestShaperMatchesRefExcess(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tree, err := network.RandomTree(40, rng)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := network.RandomTree(40, rng, network.WithUniformBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name string
		nw   *network.Network
		rhos []rat.Rat
	}{
		{"path", network.MustPath(12), []rat.Rat{rat.One, rat.New(1, 2), rat.New(2, 3), rat.New(1, 7)}},
		{"tree", tree, []rat.Rat{rat.One, rat.New(1, 2), rat.New(2, 3), rat.New(1, 7)}},
		{"path B=2", network.MustPath(12, network.WithUniformBandwidth(2)), []rat.Rat{rat.New(3, 2)}},
		{"tree B=2", tree2, []rat.Rat{rat.New(3, 2)}},
	}
	for _, c := range nets {
		for _, rho := range c.rhos {
			for _, sigma := range []int{0, 1, 3} {
				b := Bound{Rho: rho, Sigma: sigma}
				t.Run(c.name+" "+b.String(), func(t *testing.T) {
					diffShaper(t, c.nw, b, int64(sigma)+rho.Den())
				})
			}
		}
	}
}

func diffShaper(t *testing.T, nw *network.Network, b Bound, seed int64) {
	if err := b.ValidateFor(nw); err != nil {
		t.Fatal(err)
	}
	shaper, err := newShaper(nw, b)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefExcess(nw, b.Rho)
	plain, refPlain := NewExcess(nw, b.Rho), newRefExcess(nw, b.Rho)
	perRound := make([]int, nw.Len())
	rng := rand.New(rand.NewSource(seed))
	admits, rejects := 0, 0
	for round := 0; round < 80; round++ {
		clear(perRound)
		var admitted, all []packet.Injection
		for k := rng.Intn(3*b.Sigma + 8); k > 0; k-- {
			in := randomRoute(nw, rng)
			all = append(all, in)
			want := true
			for _, v := range refCrossedBuffers(nw, in) {
				if ref.WouldExceed(v, perRound[v], b.Sigma) {
					want = false
					break
				}
			}
			if got := shaper.admit(in.Src, in.Dst); got != want {
				t.Fatalf("round %d, candidate %d→%d: admit = %v, refExcess says %v", round, in.Src, in.Dst, got, want)
			}
			if !want {
				rejects++
				continue
			}
			admits++
			admitted = append(admitted, in)
			for _, v := range refCrossedBuffers(nw, in) {
				perRound[v]++
			}
		}
		shaper.endRound()
		ref.Absorb(admitted)
		plain.Absorb(all)
		refPlain.Absorb(all)
		for v := network.NodeID(0); int(v) < nw.Len(); v++ {
			if got, want := shaper.At(v), ref.At(v); !got.Equal(want) {
				t.Fatalf("round %d: shaped ξ(%d) = %v, refExcess has %v", round, v, got, want)
			}
			if got, want := plain.At(v), refPlain.At(v); !got.Equal(want) {
				t.Fatalf("round %d: absorbed ξ(%d) = %v, refExcess has %v", round, v, got, want)
			}
		}
	}
	// A buffer at zero excess takes ⌊ρ+σ⌋ packets in one round, so with a
	// positive burst both decisions must occur.
	if rejects == 0 || (admits == 0) != (maxBurst(b) == 0) {
		t.Fatalf("stream made %d admits and %d rejects at ⌊ρ+σ⌋ = %d", admits, rejects, maxBurst(b))
	}
}

// randomRoute draws a source other than the sink of a one-sink network and
// a destination strictly down its route.
func randomRoute(nw *network.Network, rng *rand.Rand) packet.Injection {
	sink := nw.Sinks()[0]
	src := network.NodeID(rng.Intn(nw.Len() - 1))
	if src >= sink {
		src++
	}
	route, err := nw.Route(src, sink)
	if err != nil {
		panic(err)
	}
	return packet.Injection{Src: src, Dst: route[1+rng.Intn(len(route)-1)]}
}

// bigpathCell returns the shape of one bigpath-local benchmark cell: a
// path of 4096 nodes whose last 8 nodes are the destinations, at ρ = 1,
// σ = 2.
func bigpathCell() (*network.Network, []network.NodeID, Bound) {
	const n, d = 4096, 8
	dests := make([]network.NodeID, d)
	for k := range dests {
		dests[k] = network.NodeID(n - d + k)
	}
	return network.MustPath(n), dests, Bound{Rho: rat.One, Sigma: 2}
}

// TestShaperAllocs pins the adversary's allocations on the bigpath-local
// cell shape: none in Excess.Absorb, and none in a steady-state
// Random.Inject round, which returns its reused slice.
func TestShaperAllocs(t *testing.T) {
	nw, dests, bound := bigpathCell()
	e := NewExcess(nw, bound.Rho)
	injs := []packet.Injection{{Src: 0, Dst: dests[7]}, {Src: 2000, Dst: dests[0]}, {Src: 4000, Dst: dests[3]}}
	if got := testing.AllocsPerRun(100, func() { e.Absorb(injs) }); got != 0 {
		t.Errorf("Excess.Absorb: %v allocs per round, want 0", got)
	}

	adv, err := NewRandom(nw, bound, dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	for ; round < 20; round++ {
		adv.Inject(round)
	}
	idle := 0
	got := testing.AllocsPerRun(40, func() {
		if len(adv.Inject(round)) == 0 {
			idle++
		}
		round++
	})
	if idle > 0 {
		t.Fatalf("%d measured rounds admitted nothing; the gate needs every round to return packets", idle)
	}
	if got != 0 {
		t.Errorf("Random.Inject: %v allocs per round, want 0", got)
	}
}

// BenchmarkRandomInject builds the random adversary of one bigpath-local
// cell and runs its 40 rounds.
func BenchmarkRandomInject(b *testing.B) {
	nw, dests, bound := bigpathCell()
	b.ReportAllocs()
	for b.Loop() {
		adv, err := NewRandom(nw, bound, dests, 1)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 40; r++ {
			adv.Inject(r)
		}
	}
}
