package adversary

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

func TestBoundValidate(t *testing.T) {
	tests := []struct {
		name string
		b    Bound
		ok   bool
	}{
		{"full rate", Bound{Rho: rat.One, Sigma: 0}, true},
		{"half rate with burst", Bound{Rho: rat.New(1, 2), Sigma: 3}, true},
		{"zero", Bound{}, true},
		{"rate above one", Bound{Rho: rat.New(3, 2)}, false},
		{"negative rate", Bound{Rho: rat.New(-1, 2)}, false},
		{"negative burst", Bound{Rho: rat.One, Sigma: -1}, false},
		{"denominator at the cap", Bound{Rho: rat.New(1, maxRateDen)}, true},
		{"denominator above the cap", Bound{Rho: rat.New(1, 1<<62)}, false},
		{"burst at the cap", Bound{Rho: rat.One, Sigma: maxSigma}, true},
		{"burst above the cap", Bound{Rho: rat.One, Sigma: maxSigma + 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.b.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate(%v) err=%v, want ok=%v", tt.b, err, tt.ok)
			}
		})
	}
}

func TestCrosses(t *testing.T) {
	nw := network.MustPath(6)
	in := packet.Injection{Src: 1, Dst: 4}
	wantCross := map[network.NodeID]bool{1: true, 2: true, 3: true}
	for v := network.NodeID(0); v < 6; v++ {
		if got := Crosses(nw, in, v); got != wantCross[v] {
			t.Errorf("Crosses(1→4, %d) = %v, want %v", v, got, wantCross[v])
		}
	}
	for v := network.NodeID(0); v < 6; v++ {
		if Crosses(nw, packet.Injection{Src: 4, Dst: 1}, v) {
			t.Errorf("Crosses(backward 4→1, %d) = true, want false", v)
		}
	}
}

func TestExcessRecursionBasics(t *testing.T) {
	nw := network.MustPath(4)
	e := NewExcess(nw, rat.New(1, 2))
	// Round 0: one packet 0→3 crosses buffers 0,1,2.
	e.Absorb([]packet.Injection{{Src: 0, Dst: 3}})
	if got := e.At(0); !got.Equal(rat.New(1, 2)) {
		t.Errorf("ξ(0) = %v, want 1/2", got)
	}
	if got := e.At(3); !got.IsZero() {
		t.Errorf("ξ(3) = %v, want 0 (destination buffer not crossed)", got)
	}
	// Round 1: nothing — excess decays by ρ, floored at 0.
	e.Absorb(nil)
	if got := e.At(0); !got.IsZero() {
		t.Errorf("ξ(0) after idle = %v, want 0", got)
	}
	// Two injections in one round: ξ = 2 − 1/2 = 3/2.
	e.Absorb([]packet.Injection{{Src: 0, Dst: 3}, {Src: 0, Dst: 2}})
	if got := e.At(0); !got.Equal(rat.New(3, 2)) {
		t.Errorf("ξ(0) after double = %v, want 3/2", got)
	}
	max, arg := e.Max()
	if !max.Equal(rat.New(3, 2)) || arg != 0 {
		t.Errorf("Max = %v@%d, want 3/2@0", max, arg)
	}
}

// Property: the excess recursion equals Definition 2.2 computed naïvely.
func TestQuickExcessMatchesDefinition(t *testing.T) {
	nw := network.MustPath(5)
	f := func(seed int64, rounds uint8, pNum, pDen uint8) bool {
		rho := rat.New(int64(pNum%4), int64(pDen%4)+1)
		if rat.One.Less(rho) {
			rho = rat.One
		}
		rng := rand.New(rand.NewSource(seed))
		T := int(rounds)%12 + 1
		history := make([][]packet.Injection, T)
		e := NewExcess(nw, rho)
		for t := 0; t < T; t++ {
			k := rng.Intn(3)
			for i := 0; i < k; i++ {
				src := network.NodeID(rng.Intn(4))
				dst := src + 1 + network.NodeID(rng.Intn(int(4-src)))
				history[t] = append(history[t], packet.Injection{Src: src, Dst: dst})
			}
			e.Absorb(history[t])
			for v := network.NodeID(0); v < 5; v++ {
				want := NaiveExcess(nw, rho, history, t, v)
				if !e.At(v).Equal(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the verifier (excess ≤ σ) agrees with the naïve Definition 2.1
// check on random histories.
func TestQuickVerifierMatchesNaive(t *testing.T) {
	nw := network.MustPath(5)
	f := func(seed int64, sig uint8) bool {
		bound := Bound{Rho: rat.New(1, 2), Sigma: int(sig % 3)}
		rng := rand.New(rand.NewSource(seed))
		const T = 10
		history := make([][]packet.Injection, T)
		for t := 0; t < T; t++ {
			k := rng.Intn(3)
			for i := 0; i < k; i++ {
				src := network.NodeID(rng.Intn(4))
				dst := src + 1 + network.NodeID(rng.Intn(int(4-src)))
				history[t] = append(history[t], packet.Injection{Src: src, Dst: dst})
			}
		}
		ver, err := NewVerifier(nw, bound)
		if err != nil {
			return false
		}
		verOK := true
		for t := 0; t < T; t++ {
			if err := ver.Check(t, history[t]); err != nil {
				verOK = false
				break
			}
		}
		return verOK == NaiveBoundHolds(nw, bound, history)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestVerifierRejectsBadRoutes(t *testing.T) {
	nw := network.MustPath(4)
	ver, err := NewVerifier(nw, Bound{Rho: rat.One, Sigma: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Check(0, []packet.Injection{{Src: 3, Dst: 1}}); err == nil {
		t.Error("backward route accepted")
	}
}

func TestVerifierRejectsOutOfOrderRounds(t *testing.T) {
	nw := network.MustPath(4)
	ver, err := NewVerifier(nw, Bound{Rho: rat.One, Sigma: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Check(3, nil); err == nil {
		t.Error("out-of-order round accepted")
	}
}

func TestVerifierViolation(t *testing.T) {
	nw := network.MustPath(4)
	bound := Bound{Rho: rat.New(1, 2), Sigma: 1}
	ver, err := NewVerifier(nw, bound)
	if err != nil {
		t.Fatal(err)
	}
	// 2 packets crossing buffer 0: ξ = 2 − 1/2 = 3/2 > 1.
	err = ver.Check(0, []packet.Injection{{Src: 0, Dst: 3}, {Src: 0, Dst: 3}})
	if err == nil {
		t.Fatal("violation not detected")
	}
	var v *ViolationError
	if !asViolation(err, &v) {
		t.Fatalf("error %T is not a ViolationError", err)
	}
	if v.Buffer != 0 || v.Round != 0 {
		t.Errorf("violation at buffer %d round %d, want 0,0", v.Buffer, v.Round)
	}
	if v.Error() == "" {
		t.Error("empty error message")
	}
}

func asViolation(err error, target **ViolationError) bool {
	v, ok := err.(*ViolationError)
	if ok {
		*target = v
	}
	return ok
}

func TestReplayAndSchedule(t *testing.T) {
	nw := network.MustPath(5)
	bound := Bound{Rho: rat.One, Sigma: 1}
	s := NewSchedule().
		At(0, 0, 4).
		At(0, 1, 3).
		AtN(2, 2, 2, 4)
	adv, err := s.BuildVerified(nw, bound, 5)
	if err != nil {
		t.Fatalf("BuildVerified: %v", err)
	}
	if got := adv.Bound(); !got.Rho.Equal(rat.One) || got.Sigma != 1 {
		t.Errorf("Bound = %v", got)
	}
	if got := adv.Inject(0); len(got) != 2 {
		t.Errorf("round 0 injections = %v, want 2", got)
	}
	if got := adv.Inject(1); got != nil {
		t.Errorf("round 1 injections = %v, want none", got)
	}
	if got := adv.Inject(2); len(got) != 2 {
		t.Errorf("round 2 injections = %v, want 2", got)
	}
	dests := adv.Destinations()
	if len(dests) != 2 || dests[0] != 3 || dests[1] != 4 {
		t.Errorf("Destinations = %v, want [3 4]", dests)
	}
	if got := adv.LastRound(); got != 2 {
		t.Errorf("LastRound = %d, want 2", got)
	}
	if got := adv.TotalInjections(); got != 4 {
		t.Errorf("TotalInjections = %d, want 4", got)
	}
}

func TestScheduleBuildVerifiedRejectsViolation(t *testing.T) {
	nw := network.MustPath(5)
	bound := Bound{Rho: rat.New(1, 2), Sigma: 0}
	_, err := NewSchedule().At(0, 0, 4).BuildVerified(nw, bound, 3)
	if err == nil {
		t.Error("schedule exceeding bound was accepted")
	}
}

func TestEmptyAdversary(t *testing.T) {
	var e Empty
	if got := e.Inject(0); got != nil {
		t.Errorf("Empty.Inject = %v", got)
	}
	if b := e.Bound(); !b.Rho.IsZero() || b.Sigma != 0 {
		t.Errorf("Empty.Bound = %v", b)
	}
}

func TestStreamRate(t *testing.T) {
	nw := network.MustPath(8)
	tests := []struct {
		name string
		rho  rat.Rat
		T    int
		want int // total packets over T rounds
	}{
		{"full rate", rat.One, 10, 10},
		{"half rate", rat.New(1, 2), 10, 5},
		{"third rate", rat.New(1, 3), 9, 3},
		{"zero rate", rat.Zero, 10, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := NewStream(Bound{Rho: tt.rho, Sigma: 1}, 0, 7)
			total := 0
			for r := 0; r < tt.T; r++ {
				total += len(st.Inject(r))
			}
			if total != tt.want {
				t.Errorf("stream emitted %d, want %d", total, tt.want)
			}
			if tt.rho.Sign() > 0 {
				if err := VerifyPrefix(nw, NewStream(Bound{Rho: tt.rho, Sigma: 1}, 0, 7), tt.T); err != nil {
					t.Errorf("stream violates own bound: %v", err)
				}
			}
		})
	}
}

func TestRoundRobinCyclesDestinations(t *testing.T) {
	nw := network.MustPath(8)
	dests := []network.NodeID{5, 6, 7}
	rr := NewRoundRobin(Bound{Rho: rat.One, Sigma: 1}, 0, dests)
	seen := make(map[network.NodeID]int)
	for t2 := 0; t2 < 9; t2++ {
		for _, in := range rr.Inject(t2) {
			seen[in.Dst]++
		}
	}
	for _, d := range dests {
		if seen[d] != 3 {
			t.Errorf("dest %d got %d packets, want 3", d, seen[d])
		}
	}
	if err := VerifyPrefix(nw, NewRoundRobin(Bound{Rho: rat.One, Sigma: 1}, 0, dests), 20); err != nil {
		t.Errorf("round robin violates bound: %v", err)
	}
}

func TestRandomIsBoundedByConstruction(t *testing.T) {
	nw := network.MustPath(10)
	for _, sigma := range []int{0, 1, 3} {
		bound := Bound{Rho: rat.New(1, 2), Sigma: sigma}
		adv, err := NewRandom(nw, bound, nil, 42, WithAttempts(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyPrefix(nw, adv, 200); err != nil {
			t.Errorf("σ=%d: random adversary violated its bound: %v", sigma, err)
		}
	}
}

func TestRandomMultiDestBounded(t *testing.T) {
	nw := network.MustPath(12)
	dests := []network.NodeID{6, 8, 11}
	bound := Bound{Rho: rat.One, Sigma: 2}
	adv, err := NewRandom(nw, bound, dests, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := adv.Destinations()
	if len(got) != 3 || got[0] != 6 {
		t.Errorf("Destinations = %v", got)
	}
	if err := VerifyPrefix(nw, adv, 300); err != nil {
		t.Errorf("multi-dest random adversary violated bound: %v", err)
	}
}

func TestRandomOnTree(t *testing.T) {
	tree, err := network.CaterpillarTree(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	bound := Bound{Rho: rat.New(2, 3), Sigma: 2}
	adv, err := NewRandom(tree, bound, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPrefix(tree, adv, 200); err != nil {
		t.Errorf("tree random adversary violated bound: %v", err)
	}
}

func TestRandomActuallyInjects(t *testing.T) {
	nw := network.MustPath(10)
	adv, err := NewRandom(nw, Bound{Rho: rat.One, Sigma: 2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < 100; r++ {
		total += len(adv.Inject(r))
	}
	if total < 50 {
		t.Errorf("random adversary injected only %d packets in 100 rounds at rate 1", total)
	}
}

func TestRandomRejectsBadBound(t *testing.T) {
	nw := network.MustPath(4)
	if _, err := NewRandom(nw, Bound{Rho: rat.New(2, 1)}, nil, 1); err == nil {
		t.Error("rate 2 accepted")
	}
}

// TestRandomRejectsOutOfRangeDests checks that the shaped patterns refuse
// a destination that names no node, naming it, and keep repeats, which
// the pinned scenario files use to weight a destination.
func TestRandomRejectsOutOfRangeDests(t *testing.T) {
	nw := network.MustPath(64)
	bound := Bound{Rho: rat.New(1, 2), Sigma: 2}
	builders := []struct {
		name  string
		build func([]network.NodeID) error
	}{
		{"random", func(d []network.NodeID) error { _, err := NewRandom(nw, bound, d, 1); return err }},
		{"hotspot", func(d []network.NodeID) error { _, err := NewHotSpot(nw, bound, d, 1); return err }},
	}
	cases := []struct {
		name  string
		dests []network.NodeID
		bad   string // the node the error names; "" means legal
	}{
		{"past the end", []network.NodeID{70}, "70"},
		{"negative", []network.NodeID{-3, 10}, "-3"},
		{"one past the last node", []network.NodeID{10, 64}, "64"},
		{"repeats", []network.NodeID{1, 2, 3, 3}, ""},
		{"the sink", []network.NodeID{63}, ""},
	}
	for _, b := range builders {
		for _, c := range cases {
			err := b.build(c.dests)
			switch {
			case c.bad == "" && err != nil:
				t.Errorf("%s %s: %v", b.name, c.name, err)
			case c.bad != "" && err == nil:
				t.Errorf("%s %s: dests %v accepted", b.name, c.name, c.dests)
			case c.bad != "" && !strings.Contains(err.Error(), "destination "+c.bad+" "):
				t.Errorf("%s %s: error %q does not name node %s", b.name, c.name, err, c.bad)
			}
		}
	}
}

// listSampler is the random adversary's draw with explicit source lists:
// one per destination, built by testing every node, and admission by
// refExcess. It is the oracle for the sources Random draws from.
type listSampler struct {
	nw       *network.Network
	rng      *rand.Rand
	dests    []network.NodeID
	sources  [][]network.NodeID
	ref      *refExcess
	sigma    int
	attempts int
}

func newListSampler(nw *network.Network, b Bound, dests []network.NodeID, seed int64) *listSampler {
	if len(dests) == 0 {
		dests = nw.Sinks()
	}
	dests = slices.Sorted(slices.Values(dests))
	sources := make([][]network.NodeID, len(dests))
	for i, d := range dests {
		for v := range nw.Len() {
			if id := network.NodeID(v); id != d && nw.Reaches(id, d) {
				sources[i] = append(sources[i], id)
			}
		}
	}
	return &listSampler{nw: nw, rng: rand.New(rand.NewSource(seed)), dests: dests, sources: sources,
		ref: newRefExcess(nw, b.Rho), sigma: b.Sigma, attempts: defaultAttempts(b)}
}

func (s *listSampler) inject() []packet.Injection {
	perRound := make([]int, s.nw.Len())
	var out []packet.Injection
	for range s.attempts {
		di := s.rng.Intn(len(s.dests))
		if len(s.sources[di]) == 0 {
			continue
		}
		in := packet.Injection{Src: s.sources[di][s.rng.Intn(len(s.sources[di]))], Dst: s.dests[di]}
		route := refCrossedBuffers(s.nw, in)
		if slices.ContainsFunc(route, func(v network.NodeID) bool { return s.ref.WouldExceed(v, perRound[v], s.sigma) }) {
			continue
		}
		out = append(out, in)
		for _, v := range route {
			perRound[v]++
		}
	}
	s.ref.Absorb(out)
	return out
}

// TestRandomDrawsMatchSourceLists checks, for 50 seeds, that Random injects
// round for round what the list sampler injects: on a path, where the
// sources of d are drawn as 0 … d−1, with a destination 0 that has none and
// a repeated one; and on trees, with a leaf destination and repeats.
func TestRandomDrawsMatchSourceLists(t *testing.T) {
	tree, err := network.RandomTree(30, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	spider, err := network.SpiderTree(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		nw    *network.Network
		dests []network.NodeID
	}{
		{"path", network.MustPath(20), []network.NodeID{7, 0, 3, 19, 3}},
		{"path sink", network.MustPath(9), nil},
		{"tree", tree, []network.NodeID{tree.Leaves()[0], 29, 29, 28, tree.Next(5)}},
		{"spider", spider, []network.NodeID{12, 2, 3, 12}},
	}
	bound := Bound{Rho: rat.New(2, 3), Sigma: 2}
	for _, c := range cases {
		injected := 0
		for seed := int64(1); seed <= 50; seed++ {
			adv, err := NewRandom(c.nw, bound, c.dests, seed)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newListSampler(c.nw, bound, c.dests, seed)
			for round := range 30 {
				got, want := adv.Inject(round), oracle.inject()
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d round %d: Inject = %v, list sampler = %v", c.name, seed, round, got, want)
				}
				injected += len(got)
			}
		}
		if injected == 0 {
			t.Errorf("%s: nothing injected", c.name)
		}
	}
}

func TestReducedMapping(t *testing.T) {
	// Inner injects exactly one packet per round (rate 1).
	nw := network.MustPath(4)
	inner := NewStream(Bound{Rho: rat.One, Sigma: 0}, 0, 3)
	red := NewReduced(inner, 3)
	if got := red.Ell(); got != 3 {
		t.Errorf("Ell = %d", got)
	}
	b := red.Bound()
	if !b.Rho.Equal(rat.FromInt(3)) {
		t.Errorf("reduced ρ = %v, want 3", b.Rho)
	}
	// Reduced round 0 drains original round 0 only: 1 packet.
	if got := len(red.Inject(0)); got != 1 {
		t.Errorf("reduced round 0: %d packets, want 1", got)
	}
	// Reduced round 1 drains original rounds 1..3: 3 packets.
	if got := len(red.Inject(1)); got != 3 {
		t.Errorf("reduced round 1: %d packets, want 3", got)
	}
	if got := len(red.Inject(2)); got != 3 {
		t.Errorf("reduced round 2: %d packets, want 3", got)
	}
	_ = nw
}

func TestReducedPanicsOnBadEll(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReduced(_,0) did not panic")
		}
	}()
	NewReduced(Empty{}, 0)
}

// Lemma 2.5: if A is (ρ,σ)-bounded then A_ℓ is (ℓρ,σ)-bounded. We verify on
// random shaped adversaries. The reduced pattern plays on a "reduced clock";
// boundedness is checked with the naive checker over the reduced history
// with rate ℓρ (capped at 1 for Bound.Validate, so we use NaiveBoundHolds
// directly with the derived bound).
func TestQuickLemma25ReductionBound(t *testing.T) {
	nw := network.MustPath(6)
	f := func(seed int64, ellRaw, sig uint8) bool {
		ell := int(ellRaw)%3 + 1
		sigma := int(sig) % 3
		rho := rat.New(1, int64(ell)) // ρ·ℓ = 1 as HPTS requires
		inner, err := NewRandom(nw, Bound{Rho: rho, Sigma: sigma}, nil, seed)
		if err != nil {
			return false
		}
		red := NewReduced(inner, ell)
		const T = 30
		history := make([][]packet.Injection, T)
		for t := 0; t < T; t++ {
			history[t] = slices.Clone(red.Inject(t))
		}
		return NaiveBoundHolds(nw, red.Bound(), history)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReducedDestinationsDelegates(t *testing.T) {
	inner := NewStream(Bound{Rho: rat.One, Sigma: 0}, 0, 3)
	red := NewReduced(inner, 2)
	if got := red.Destinations(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Destinations = %v, want [3]", got)
	}
	red2 := NewReduced(Empty{}, 2)
	if got := red2.Destinations(); got != nil {
		t.Errorf("Destinations = %v, want nil", got)
	}
}

func TestCraftedPatternsVerify(t *testing.T) {
	nw := network.MustPath(16)
	t.Run("PTSBurst", func(t *testing.T) {
		for _, sigma := range []int{0, 2, 4} {
			adv, err := PTSBurst(nw, Bound{Rho: rat.One, Sigma: sigma}, 100)
			if err != nil {
				t.Fatalf("σ=%d: %v", sigma, err)
			}
			if adv.TotalInjections() == 0 {
				t.Error("pattern injects nothing")
			}
		}
	})
	t.Run("PTSBurst half rate", func(t *testing.T) {
		if _, err := PTSBurst(nw, Bound{Rho: rat.New(1, 2), Sigma: 3}, 100); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("PTSBurst rejects tree", func(t *testing.T) {
		tree, _ := network.CaterpillarTree(3, 1)
		if _, err := PTSBurst(tree, Bound{Rho: rat.One, Sigma: 1}, 10); err == nil {
			t.Error("tree accepted")
		}
	})
	t.Run("PPTSBurst", func(t *testing.T) {
		for _, d := range []int{1, 3, 8} {
			adv, err := PPTSBurst(nw, Bound{Rho: rat.One, Sigma: 2}, d, 120)
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			if got := len(adv.Destinations()); got != d {
				t.Errorf("d=%d: destinations = %d", d, got)
			}
		}
		if _, err := PPTSBurst(nw, Bound{Rho: rat.One, Sigma: 2}, 16, 50); err == nil {
			t.Error("d = n accepted")
		}
	})
	t.Run("TreeBurst", func(t *testing.T) {
		tree, err := network.SpiderTree(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Sinks()[0]
		// Chain of destinations along one arm plus the root.
		dests := []network.NodeID{1, 2, 3, root}
		adv, err := TreeBurst(tree, Bound{Rho: rat.One, Sigma: 2}, dests, 80)
		if err != nil {
			t.Fatal(err)
		}
		if adv.TotalInjections() == 0 {
			t.Error("pattern injects nothing")
		}
	})
	t.Run("GreedyKiller", func(t *testing.T) {
		adv, err := GreedyKiller(nw, Bound{Rho: rat.One, Sigma: 1}, 4, 200)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(adv.Destinations()); got != 4 {
			t.Errorf("destinations = %d, want 4", got)
		}
		if _, err := GreedyKiller(nw, Bound{Rho: rat.One, Sigma: 1}, 8, 50); err == nil {
			t.Error("2d ≥ n accepted")
		}
	})
}
