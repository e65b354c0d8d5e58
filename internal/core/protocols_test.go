package core

import (
	"context"
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// runChecked executes one run through the context-aware engine with the
// given bound check wired in and asserts completion; it returns the
// result.
func runChecked(t *testing.T, check *BoundCheck, nw *network.Network, p sim.Protocol, adv adversary.Adversary, rounds int, opts ...sim.Option) sim.Result {
	t.Helper()
	if check != nil {
		opts = append(opts, sim.WithObservers(check.Observer()), sim.WithInvariants(check.Invariant()))
	}
	res, err := sim.Run(context.Background(), sim.NewSpec(nw, p, adv, rounds, opts...))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res
}

// --- PTS (Proposition 3.1) ---

func TestPTSAttachValidation(t *testing.T) {
	tree, err := network.CaterpillarTree(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPTS().Attach(tree, adversary.Bound{}, nil); err == nil {
		t.Error("PTS attached to a tree")
	}
	nw := network.MustPath(8)
	if err := NewPTS().Attach(nw, adversary.Bound{}, []network.NodeID{3, 5}); err == nil {
		t.Error("PTS attached with two destinations")
	}
	if err := NewPTS().Attach(nw, adversary.Bound{}, []network.NodeID{5}); err != nil {
		t.Errorf("PTS single-destination attach failed: %v", err)
	}
}

func TestPTSBoundAgainstCraftedBurst(t *testing.T) {
	for _, tc := range []struct {
		n     int
		rho   rat.Rat
		sigma int
	}{
		{16, rat.One, 0},
		{16, rat.One, 2},
		{16, rat.One, 5},
		{32, rat.One, 3},
		{64, rat.One, 4},
		{16, rat.New(1, 2), 3},
		{32, rat.New(1, 4), 2},
	} {
		name := fmt.Sprintf("n=%d_rho=%v_sigma=%d", tc.n, tc.rho, tc.sigma)
		t.Run(name, func(t *testing.T) {
			nw := network.MustPath(tc.n)
			bound := adversary.Bound{Rho: tc.rho, Sigma: tc.sigma}
			adv, err := adversary.PTSBurst(nw, bound, 6*tc.n)
			if err != nil {
				t.Fatal(err)
			}
			check := NewPathBoundCheck(nw, tc.rho)
			res := runChecked(t, check, nw, NewPTS(), adv, 6*tc.n,
				sim.WithInvariants(MaxLoadInvariant(nw, 2+tc.sigma)))
			if res.MaxLoad > 2+tc.sigma {
				t.Errorf("MaxLoad = %d > 2+σ = %d", res.MaxLoad, 2+tc.sigma)
			}
			if res.MaxLoad < 1+tc.sigma {
				t.Logf("note: crafted burst reached only %d of bound %d", res.MaxLoad, 2+tc.sigma)
			}
		})
	}
}

func TestPTSBoundAgainstRandom(t *testing.T) {
	nw := network.MustPath(24)
	for _, sigma := range []int{0, 1, 4} {
		for seed := int64(0); seed < 3; seed++ {
			bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
			adv, err := adversary.NewRandom(nw, bound, []network.NodeID{23}, seed)
			if err != nil {
				t.Fatal(err)
			}
			res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPTS(), adv, 400,
				sim.WithInvariants(MaxLoadInvariant(nw, 2+sigma)))
			if res.MaxLoad > 2+sigma {
				t.Errorf("σ=%d seed=%d: MaxLoad = %d > %d", sigma, seed, res.MaxLoad, 2+sigma)
			}
		}
	}
}

func TestPTSDrainDeliversWhenIdle(t *testing.T) {
	nw := network.MustPath(8)
	// One packet, then silence: strict PTS never forwards it; drain does.
	bound := adversary.Bound{Rho: rat.One, Sigma: 0}
	strictAdv := adversary.NewSchedule().At(0, 0, 7).Build(bound)
	res, err := sim.Run(context.Background(), sim.NewSpec(nw, NewPTS(), strictAdv, 40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Errorf("strict PTS delivered %d, want 0 (no bad buffer ever forms)", res.Delivered)
	}
	drainAdv := adversary.NewSchedule().At(0, 0, 7).Build(bound)
	res, err = sim.Run(context.Background(), sim.NewSpec(nw, NewPTS(WithDrain()), drainAdv, 40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Errorf("PTS+drain delivered %d, want 1", res.Delivered)
	}
}

func TestPTSDrainPreservesBound(t *testing.T) {
	nw := network.MustPath(16)
	for _, sigma := range []int{0, 3} {
		bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
		adv, err := adversary.PTSBurst(nw, bound, 100)
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPTS(WithDrain()), adv, 100,
			sim.WithInvariants(MaxLoadInvariant(nw, 2+sigma)))
	}
}

// --- PPTS (Proposition 3.2) ---

func TestPPTSAttachValidation(t *testing.T) {
	tree, err := network.CaterpillarTree(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPPTS().Attach(tree, adversary.Bound{}, nil); err == nil {
		t.Error("PPTS attached to a tree")
	}
}

func TestPPTSBoundAgainstCraftedBurst(t *testing.T) {
	for _, tc := range []struct {
		n, d  int
		sigma int
	}{
		{16, 1, 0},
		{16, 2, 1},
		{16, 4, 2},
		{32, 8, 2},
		{32, 16, 0},
		{64, 8, 4},
	} {
		name := fmt.Sprintf("n=%d_d=%d_sigma=%d", tc.n, tc.d, tc.sigma)
		t.Run(name, func(t *testing.T) {
			nw := network.MustPath(tc.n)
			bound := adversary.Bound{Rho: rat.One, Sigma: tc.sigma}
			adv, err := adversary.PPTSBurst(nw, bound, tc.d, 8*tc.n)
			if err != nil {
				t.Fatal(err)
			}
			res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPPTS(), adv, 8*tc.n,
				sim.WithInvariants(MaxLoadInvariant(nw, 1+tc.d+tc.sigma)))
			if res.MaxLoad > 1+tc.d+tc.sigma {
				t.Errorf("MaxLoad = %d > 1+d+σ = %d", res.MaxLoad, 1+tc.d+tc.sigma)
			}
		})
	}
}

func TestPPTSBoundAgainstRandomMultiDest(t *testing.T) {
	nw := network.MustPath(20)
	dests := []network.NodeID{9, 13, 16, 19}
	d := len(dests)
	for _, sigma := range []int{0, 2} {
		for seed := int64(0); seed < 3; seed++ {
			bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
			adv, err := adversary.NewRandom(nw, bound, dests, seed)
			if err != nil {
				t.Fatal(err)
			}
			res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPPTS(), adv, 400,
				sim.WithInvariants(MaxLoadInvariant(nw, 1+d+sigma)))
			if res.MaxLoad > 1+d+sigma {
				t.Errorf("σ=%d seed=%d: MaxLoad = %d > %d", sigma, seed, res.MaxLoad, 1+d+sigma)
			}
		}
	}
}

func TestPPTSAgainstGreedyKiller(t *testing.T) {
	nw := network.MustPath(32)
	bound := adversary.Bound{Rho: rat.One, Sigma: 1}
	adv, err := adversary.GreedyKiller(nw, bound, 8, 600)
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPPTS(), adv, 600,
		sim.WithInvariants(MaxLoadInvariant(nw, 1+8+1)))
	if res.MaxLoad > 10 {
		t.Errorf("MaxLoad = %d > 10", res.MaxLoad)
	}
}

func TestPPTSDrainDeliversAndKeepsBound(t *testing.T) {
	nw := network.MustPath(16)
	bound := adversary.Bound{Rho: rat.One, Sigma: 1}
	adv, err := adversary.PPTSBurst(nw, bound, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPPTS(PPTSWithDrain()), adv, 260,
		sim.WithInvariants(MaxLoadInvariant(nw, 1+4+1)))
	if res.Delivered == 0 {
		t.Error("PPTS+drain delivered nothing")
	}
	// With 60 idle rounds at the end, drain should clear nearly everything.
	if res.Residual > 6 {
		t.Errorf("Residual = %d after drain window", res.Residual)
	}
}

func TestPPTSReducesToPTSSingleDest(t *testing.T) {
	// With one destination, PPTS must obey the PTS bound 2 + σ.
	nw := network.MustPath(16)
	bound := adversary.Bound{Rho: rat.One, Sigma: 2}
	adv, err := adversary.PTSBurst(nw, bound, 150)
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, NewPathBoundCheck(nw, rat.One), nw, NewPPTS(), adv, 150,
		sim.WithInvariants(MaxLoadInvariant(nw, 2+2)))
	if res.MaxLoad > 4 {
		t.Errorf("MaxLoad = %d > 4", res.MaxLoad)
	}
}

// --- Trees (Propositions B.3, 3.5) ---

func TestTreePTSAttachValidation(t *testing.T) {
	forest, err := network.NewForest([]network.NodeID{1, network.None, 3, network.None})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewTreePTS().Attach(forest, adversary.Bound{}, forest.Sinks()); err != nil {
		t.Errorf("TreePTS rejected a forest with root destinations: %v", err)
	}
	tree, err := network.CaterpillarTree(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewTreePTS().Attach(tree, adversary.Bound{}, []network.NodeID{0}); err == nil {
		t.Error("TreePTS accepted a non-root destination")
	}
}

// TestForestPTSBound: the union-of-trees case the paper's §1 highlights.
// Two disjoint in-trees share the engine; each component independently
// respects 2 + σ.
func TestForestPTSBound(t *testing.T) {
	// Component A: path 0→1→2 (root 2); component B: star 3,4→5 plus 6→5
	// (root 5).
	forest, err := network.NewForest([]network.NodeID{
		1, 2, network.None, 5, 5, network.None, 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := forest.Sinks()
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	const sigma = 2
	bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
	// Inject to both roots from both components.
	s := adversary.NewSchedule()
	leavesB := []network.NodeID{3, 4, 6}
	for r := 0; r < 60; r++ {
		s.At(r, 0, 2)
		s.At(r, leavesB[r%3], 5)
	}
	// Burst on top of the steady packet: together they use the full ρ+σ
	// budget of buffer 0 in round 30.
	s.AtN(30, sigma, 0, 2)
	adv, err := s.BuildVerified(forest, bound, 120)
	if err != nil {
		t.Fatal(err)
	}
	cons := sim.NewConservationCheck()
	res, err := sim.Run(context.Background(), sim.NewSpec(forest, NewTreePTS(), adv, 120,
		sim.WithObservers(cons),
		sim.WithInvariants(MaxLoadInvariant(forest, 2+sigma))))
	if err != nil {
		t.Fatal(err)
	}
	if cons.Err != nil {
		t.Error(cons.Err)
	}
	if res.MaxLoad > 2+sigma {
		t.Errorf("MaxLoad = %d > %d", res.MaxLoad, 2+sigma)
	}
}

// TestForestPPTSBound: TreePPTS on a forest with per-component destination
// chains.
func TestForestPPTSBound(t *testing.T) {
	// Two disjoint paths as trees: 0→1→2→3 and 4→5→6→7.
	forest, err := network.NewForest([]network.NodeID{
		1, 2, 3, network.None, 5, 6, 7, network.None,
	})
	if err != nil {
		t.Fatal(err)
	}
	dests := []network.NodeID{2, 3, 6, 7}
	dprime := DestinationDepth(forest, dests)
	if dprime != 2 {
		t.Fatalf("d′ = %d, want 2 (per-component chains)", dprime)
	}
	const sigma = 1
	bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
	adv, err := adversary.NewRandom(forest, bound, dests, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.NewSpec(forest, NewTreePPTS(), adv, 300, sim.WithInvariants(MaxLoadInvariant(forest, 1+dprime+sigma))))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad > 1+dprime+sigma {
		t.Errorf("MaxLoad = %d > 1+d′+σ = %d", res.MaxLoad, 1+dprime+sigma)
	}
}

func TestTreePTSBound(t *testing.T) {
	shapes := map[string]*network.Network{}
	if tr, err := network.CaterpillarTree(6, 2); err == nil {
		shapes["caterpillar"] = tr
	}
	if tr, err := network.BinaryTree(3); err == nil {
		shapes["binary"] = tr
	}
	if tr, err := network.SpiderTree(4, 3); err == nil {
		shapes["spider"] = tr
	}
	for name, tree := range shapes {
		for _, sigma := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%s_sigma=%d", name, sigma), func(t *testing.T) {
				bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
				adv, err := adversary.TreeBurst(tree, bound, nil, 200)
				if err != nil {
					t.Fatal(err)
				}
				res := runChecked(t, NewTreeBoundCheck(tree, rat.One), tree, NewTreePTS(), adv, 200,
					sim.WithInvariants(MaxLoadInvariant(tree, 2+sigma)))
				if res.MaxLoad > 2+sigma {
					t.Errorf("MaxLoad = %d > 2+σ = %d", res.MaxLoad, 2+sigma)
				}
			})
		}
	}
}

func TestTreePTSRandomAdversary(t *testing.T) {
	tree, err := network.BinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		bound := adversary.Bound{Rho: rat.One, Sigma: 2}
		adv, err := adversary.NewRandom(tree, bound, nil, seed) // sinks only
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, NewTreeBoundCheck(tree, rat.One), tree, NewTreePTS(), adv, 300,
			sim.WithInvariants(MaxLoadInvariant(tree, 2+2)))
	}
}

func TestTreePTSDrainDelivers(t *testing.T) {
	tree, err := network.SpiderTree(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Sinks()[0]
	bound := adversary.Bound{Rho: rat.One, Sigma: 0}
	adv := adversary.NewSchedule().At(0, 0, root).At(1, 3, root).Build(bound)
	res, err := sim.Run(context.Background(), sim.NewSpec(tree, NewTreePTS(TreePTSWithDrain()), adv, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", res.Delivered)
	}
}

func TestTreePPTSBound(t *testing.T) {
	tree, err := network.SpiderTree(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Sinks()[0]
	// Destinations along arm 0 plus the root: a chain, so d′ = 4.
	dests := []network.NodeID{2, 3, 4, root}
	dprime := DestinationDepth(tree, dests)
	if dprime != 4 {
		t.Fatalf("d′ = %d, want 4", dprime)
	}
	for _, sigma := range []int{0, 2} {
		bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
		adv, err := adversary.TreeBurst(tree, bound, dests, 300)
		if err != nil {
			t.Fatal(err)
		}
		res := runChecked(t, NewTreeBoundCheck(tree, rat.One), tree, NewTreePPTS(), adv, 300,
			sim.WithInvariants(MaxLoadInvariant(tree, 1+dprime+sigma)))
		if res.MaxLoad > 1+dprime+sigma {
			t.Errorf("σ=%d: MaxLoad = %d > 1+d′+σ = %d", sigma, res.MaxLoad, 1+dprime+sigma)
		}
	}
}

func TestTreePPTSRandomMultiDest(t *testing.T) {
	tree, err := network.CaterpillarTree(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Destinations: spine nodes 3..7 (a chain): d′ = 5.
	dests := []network.NodeID{3, 4, 5, 6, 7}
	dprime := DestinationDepth(tree, dests)
	for seed := int64(0); seed < 3; seed++ {
		bound := adversary.Bound{Rho: rat.One, Sigma: 1}
		adv, err := adversary.NewRandom(tree, bound, dests, seed)
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, NewTreeBoundCheck(tree, rat.One), tree, NewTreePPTS(), adv, 400,
			sim.WithInvariants(MaxLoadInvariant(tree, 1+dprime+1)))
	}
}

func TestDestinationDepth(t *testing.T) {
	tree, err := network.SpiderTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Sinks()[0]
	if got := DestinationDepth(tree, []network.NodeID{root}); got != 1 {
		t.Errorf("d′(root) = %d, want 1", got)
	}
	// Destinations on different arms are not on a common leaf-root path.
	if got := DestinationDepth(tree, []network.NodeID{1, 4}); got != 1 {
		t.Errorf("d′(two arms) = %d, want 1", got)
	}
	if got := DestinationDepth(tree, []network.NodeID{0, 1, 2, root}); got != 4 {
		t.Errorf("d′(chain) = %d, want 4", got)
	}
}

// --- HPTS (Theorem 4.1) ---

func TestHPTSAttachValidation(t *testing.T) {
	if err := NewHPTS(2).Attach(network.MustPath(10), adversary.Bound{}, nil); err == nil {
		t.Error("HPTS(2) attached to non-square path")
	}
	if err := NewHPTS(3).Attach(network.MustPath(8), adversary.Bound{}, nil); err != nil {
		t.Errorf("HPTS(3) on 8 nodes: %v", err)
	}
	tree, err := network.CaterpillarTree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewHPTS(2).Attach(tree, adversary.Bound{}, nil); err == nil {
		t.Error("HPTS attached to a tree")
	}
}

func TestHPTSPhaseLength(t *testing.T) {
	if got := NewHPTS(3).PhaseLength(); got != 3 {
		t.Errorf("PhaseLength = %d, want 3", got)
	}
}

func TestHPTSBoundTheorem41(t *testing.T) {
	cases := []struct {
		m, ell int
	}{
		{2, 2}, {2, 3}, {2, 4}, {3, 2}, {4, 2}, {3, 3}, {8, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("m=%d_ell=%d", tc.m, tc.ell), func(t *testing.T) {
			h, err := NewHierarchy(tc.m, tc.ell)
			if err != nil {
				t.Fatal(err)
			}
			n := h.N()
			nw := network.MustPath(n)
			for _, sigma := range []int{0, 2} {
				rho := rat.New(1, int64(tc.ell))
				bound := adversary.Bound{Rho: rho, Sigma: sigma}
				// Destinations spread over the line to exercise all levels.
				var dests []network.NodeID
				for v := 1; v < n; v += (n / 4) {
					dests = append(dests, network.NodeID(v))
				}
				dests = append(dests, network.NodeID(n-1))
				adv, err := adversary.NewRandom(nw, bound, dests, 11)
				if err != nil {
					t.Fatal(err)
				}
				proto := NewHPTS(tc.ell)
				spaceBound := tc.ell*tc.m + sigma + 1
				check := NewHPTSBoundCheck(nw, h, rho)
				res := runChecked(t, check, nw, proto, adv, 40*tc.ell*n,
					sim.WithInvariants(MaxLoadInvariant(nw, spaceBound)))
				if res.MaxLoad > spaceBound {
					t.Errorf("σ=%d: MaxLoad = %d > ℓm+σ+1 = %d", sigma, res.MaxLoad, spaceBound)
				}
			}
		})
	}
}

func TestHPTSEllOneDegeneratesToPPTS(t *testing.T) {
	// ℓ = 1: HPTS over m = n potential destinations; bound n + σ + 1 holds,
	// and the tighter PPTS bound 1 + d + σ should hold too for d actual
	// destinations.
	nw := network.MustPath(8)
	bound := adversary.Bound{Rho: rat.One, Sigma: 1}
	adv, err := adversary.PPTSBurst(nw, bound, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, nil, nw, NewHPTS(1), adv, 100,
		sim.WithInvariants(MaxLoadInvariant(nw, 1+3+1)))
	if res.MaxLoad > 5 {
		t.Errorf("MaxLoad = %d > 5", res.MaxLoad)
	}
}

func TestHPTSStreamWorkload(t *testing.T) {
	// A single long-haul stream at rate 1/ℓ through all levels.
	h, err := NewHierarchy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.MustPath(h.N())
	rho := rat.New(1, 3)
	adv := adversary.NewStream(adversary.Bound{Rho: rho, Sigma: 1}, 0, network.NodeID(h.N()-1))
	spaceBound := HPTSSpaceBound(h, 1)
	res := runChecked(t, NewHPTSBoundCheck(nw, h, rho), nw, NewHPTS(3), adv, 600,
		sim.WithInvariants(MaxLoadInvariant(nw, spaceBound)))
	if res.Delivered == 0 {
		t.Error("HPTS delivered nothing on a steady stream")
	}
}

func TestHPTSAblationRunsFeasibly(t *testing.T) {
	// Without ActivatePreBad the protocol must still produce feasible
	// decisions (Lemma 4.7 holds for FormPaths alone); the invariant of
	// Lemma 4.8 is what breaks, which E8 measures.
	h, err := NewHierarchy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.MustPath(h.N())
	rho := rat.New(1, 3)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rho, Sigma: 2}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.NewSpec(nw, NewHPTS(3, HPTSAblatePreBad()), adv, 500))
	if err != nil {
		t.Fatalf("ablated HPTS run failed: %v", err)
	}
	if res.Injected == 0 {
		t.Error("no traffic")
	}
}

func TestHPTSNames(t *testing.T) {
	if got := NewHPTS(2).Name(); got != "HPTS(ℓ=2)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewHPTS(2, HPTSAblatePreBad()).Name(); got != "HPTS(ℓ=2,no-prebad)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewPTS().Name(); got != "PTS" {
		t.Errorf("Name = %q", got)
	}
	if got := NewPTS(WithDrain()).Name(); got != "PTS+drain" {
		t.Errorf("Name = %q", got)
	}
	if got := NewPPTS().Name(); got != "PPTS" {
		t.Errorf("Name = %q", got)
	}
	if got := NewPPTS(PPTSWithDrain()).Name(); got != "PPTS+drain" {
		t.Errorf("Name = %q", got)
	}
	if got := NewTreePTS().Name(); got != "TreePTS" {
		t.Errorf("Name = %q", got)
	}
	if got := NewTreePPTS().Name(); got != "TreePPTS" {
		t.Errorf("Name = %q", got)
	}
}
