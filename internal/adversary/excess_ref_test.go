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

// at returns the shaper's current ξ(v), charges of the round in progress
// included. A sink's buffer is on no route.
func (s *shaper) at(v network.NodeID) rat.Rat {
	if s.nw.Next(v) == network.None {
		return rat.Zero
	}
	pos, _, _ := s.nw.Span(v, s.nw.Next(v))
	c, a := s.tagOf(s.nb + pos>>blockBits)
	return rat.New(max(max(s.val[pos], c)+a+s.off, 0), s.q)
}

// TestShaperMatchesRefExcess drives the shaper and refExcess with the same
// random candidate streams on paths, trees and a forest, whose routes
// cross several heavy chains. Every candidate must get the same admit
// decision, and every buffer the same ξ after every round. Alongside,
// Absorb and refExcess take every candidate unshaped, so excesses above σ
// are compared too.
func TestShaperMatchesRefExcess(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	must := func(nw *network.Network, err error) *network.Network {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	tree := must(network.RandomTree(40, rng))
	tree2 := must(network.RandomTree(40, rng, network.WithUniformBandwidth(2)))
	// Two components: a random tree on 0…29 rooted at 29 and a caterpillar-like
	// spine 30→…→39 with legs 40…49.
	parent := make([]network.NodeID, 50)
	for v := 0; v < 29; v++ {
		parent[v] = network.NodeID(v + 1 + rng.Intn(29-v))
	}
	parent[29], parent[39] = network.None, network.None
	for v := 30; v < 39; v++ {
		parent[v] = network.NodeID(v + 1)
	}
	for v := 40; v < 50; v++ {
		parent[v] = network.NodeID(30 + rng.Intn(9))
	}
	forest := must(network.NewForest(parent))
	rhos := []rat.Rat{rat.One, rat.New(1, 2), rat.New(2, 3), rat.New(1, 7)}
	nets := []struct {
		name string
		nw   *network.Network
		rhos []rat.Rat
	}{
		{"path", network.MustPath(12), rhos},
		{"tree", tree, rhos},
		{"path B=2", network.MustPath(12, network.WithUniformBandwidth(2)), []rat.Rat{rat.New(3, 2)}},
		{"tree B=2", tree2, []rat.Rat{rat.New(3, 2)}},
		{"path300", network.MustPath(300), []rat.Rat{rat.One, rat.New(2, 3)}},
		{"binary5", must(network.BinaryTree(5)), []rat.Rat{rat.One, rat.New(2, 3)}},
		{"spider4x6", must(network.SpiderTree(4, 6)), []rat.Rat{rat.One, rat.New(2, 3)}},
		{"caterpillar", must(network.CaterpillarTree(12, 3)), []rat.Rat{rat.One, rat.New(2, 3)}},
		{"forest", forest, []rat.Rat{rat.One, rat.New(2, 3)}},
	}
	for _, c := range nets {
		for _, rho := range c.rhos {
			for _, sigma := range []int{0, 1, 3} {
				b := Bound{Rho: rho, Sigma: sigma}
				t.Run(c.name+" "+b.String(), func(t *testing.T) {
					diffShaper(t, c.nw, b, int64(sigma)+rho.Den(), -1)
				})
			}
		}
	}
	// Folding off into the stored values mid-round changes no ξ.
	for _, nw := range []*network.Network{tree, network.MustPath(300)} {
		t.Run("rebase", func(t *testing.T) {
			diffShaper(t, nw, Bound{Rho: rat.New(2, 3), Sigma: 1}, 5, 40)
		})
	}
}

// diffShaper compares the shaper with refExcess over 80 rounds of random
// candidates. At round rebaseAt (none if negative) the shaper rebases
// after the round's first candidate.
func diffShaper(t *testing.T, nw *network.Network, b Bound, seed int64, rebaseAt int) {
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
			if round == rebaseAt && len(all) == 1 {
				shaper.rebase()
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
			if got, want := shaper.at(v), ref.At(v); !got.Equal(want) {
				t.Fatalf("round %d: shaped ξ(%d) = %v, refExcess has %v", round, v, got, want)
			}
			if got, want := plain.At(v), refPlain.At(v); !got.Equal(want) {
				t.Fatalf("round %d: absorbed ξ(%d) = %v, refExcess has %v", round, v, got, want)
			}
		}
		// The tree's maxima agree with the values beneath them.
		for bl := range shaper.nb {
			for br := bl; br < shaper.nb; br++ {
				want := int64(0)
				for pos := bl * blockLen; pos < min((br+1)*blockLen, nw.Len()); pos++ {
					c, a := shaper.tagOf(shaper.nb + pos>>blockBits)
					want = max(want, max(shaper.val[pos], c)+a)
				}
				if got := shaper.blocksMax(bl, br); got != want {
					t.Fatalf("round %d: blocks %d..%d hold at most %d, the tree says %d", round, bl, br, want, got)
				}
			}
		}
	}
	// A buffer at zero excess takes ⌊ρ+σ⌋ packets in one round, so with a
	// positive burst both decisions must occur.
	if rejects == 0 || (admits == 0) != (maxBurst(b) == 0) {
		t.Fatalf("stream made %d admits and %d rejects at ⌊ρ+σ⌋ = %d", admits, rejects, maxBurst(b))
	}
}

// randomRoute draws a source other than a sink and a destination strictly
// down its route. On a one-sink network the source is uniform over the
// other nodes.
func randomRoute(nw *network.Network, rng *rand.Rand) packet.Injection {
	src := network.NodeID(rng.Intn(nw.Len() - len(nw.Sinks())))
	for _, s := range nw.Sinks() { // ascending: skip past each sink
		if src >= s {
			src++
		}
	}
	sink := src
	for nw.Next(sink) != network.None {
		sink = nw.Next(sink)
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
