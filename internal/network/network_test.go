package network

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPath(t *testing.T) {
	nw, err := NewPath(5)
	if err != nil {
		t.Fatalf("NewPath(5): %v", err)
	}
	if nw.Len() != 5 {
		t.Errorf("Len = %d, want 5", nw.Len())
	}
	if !nw.IsPath() {
		t.Error("IsPath = false, want true")
	}
	for i := 0; i < 4; i++ {
		if got := nw.Next(NodeID(i)); got != NodeID(i+1) {
			t.Errorf("Next(%d) = %d, want %d", i, got, i+1)
		}
	}
	if got := nw.Next(4); got != None {
		t.Errorf("Next(4) = %d, want None", got)
	}
	if got := nw.Sinks(); len(got) != 1 || got[0] != 4 {
		t.Errorf("Sinks = %v, want [4]", got)
	}
	if got := nw.Depth(0); got != 4 {
		t.Errorf("Depth(0) = %d, want 4", got)
	}
}

func TestNewPathErrors(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := NewPath(n); err == nil {
			t.Errorf("NewPath(%d) succeeded, want error", n)
		}
	}
}

func TestMustPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPath(0) did not panic")
		}
	}()
	MustPath(0)
}

func TestNewTree(t *testing.T) {
	// 0→2, 1→2, 2→4, 3→4, 4 root.
	nw, err := NewTree([]NodeID{2, 2, 4, 4, None})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if nw.IsPath() {
		t.Error("IsPath = true for a tree")
	}
	if got := nw.Children(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Children(2) = %v, want [0 1]", got)
	}
	if got := nw.Children(4); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Children(4) = %v, want [2 3]", got)
	}
	if got := nw.Depth(0); got != 2 {
		t.Errorf("Depth(0) = %d, want 2", got)
	}
	if got := nw.Leaves(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("Leaves = %v, want [0 1 3]", got)
	}
}

func TestNewTreeErrors(t *testing.T) {
	tests := []struct {
		name   string
		parent []NodeID
	}{
		{"empty", nil},
		{"two roots", []NodeID{None, None}},
		{"cycle", []NodeID{1, 0, None}},
		{"self loop", []NodeID{0, None}},
		{"out of range", []NodeID{5, None}},
		{"no root", []NodeID{1, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewTree(tt.parent); err == nil {
				t.Error("NewTree succeeded, want error")
			}
		})
	}
}

func TestNewForestAllowsMultipleRoots(t *testing.T) {
	nw, err := NewForest([]NodeID{1, None, 3, None})
	if err != nil {
		t.Fatalf("NewForest: %v", err)
	}
	if got := nw.Sinks(); len(got) != 2 {
		t.Errorf("Sinks = %v, want two roots", got)
	}
}

func TestReaches(t *testing.T) {
	nw := MustPath(6)
	tests := []struct {
		v, w NodeID
		want bool
	}{
		{0, 5, true},
		{0, 0, true},
		{3, 3, true},
		{3, 2, false},
		{5, 0, false},
		{2, 4, true},
		{-1, 3, false},
		{3, 99, false},
	}
	for _, tt := range tests {
		if got := nw.Reaches(tt.v, tt.w); got != tt.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", tt.v, tt.w, got, tt.want)
		}
	}

	tree, err := NewTree([]NodeID{2, 2, 4, 4, None})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Reaches(0, 4) {
		t.Error("tree: Reaches(0,4) = false, want true")
	}
	if tree.Reaches(0, 3) {
		t.Error("tree: Reaches(0,3) = true, want false (incomparable)")
	}
	if tree.Reaches(0, 1) {
		t.Error("tree: Reaches(0,1) = true, want false (siblings)")
	}
}

// refReaches walks from v toward its sink, the direct definition of
// Reaches, kept as the oracle for the preorder intervals.
func refReaches(nw *Network, v, w NodeID) bool {
	if !nw.Valid(v) || !nw.Valid(w) {
		return false
	}
	for u := v; u != None && nw.depth[u] >= nw.depth[w]; u = nw.next[u] {
		if u == w {
			return true
		}
	}
	return false
}

// Property: on random forests with several roots, Reaches agrees with the
// walk for every node pair, out-of-range ids included. Each sink starts
// its own DFS, so this checks that the intervals of different trees never
// overlap.
func TestQuickReachesMatchesWalk(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz)%60
		roots := min(n, 2+rng.Intn(3))
		// Parents come earlier in a random order, so there is no cycle.
		order := rng.Perm(n)
		parent := make([]NodeID, n)
		for i, v := range order {
			parent[v] = None
			if i >= roots && rng.Intn(8) > 0 {
				parent[v] = NodeID(order[rng.Intn(i)])
			}
		}
		nw, err := NewForest(parent)
		if err != nil || len(nw.Sinks()) < roots {
			return false
		}
		for v := NodeID(-1); int(v) <= n; v++ {
			for w := NodeID(-1); int(w) <= n; w++ {
				if nw.Reaches(v, w) != refReaches(nw, v, w) {
					t.Logf("parent %v: Reaches(%d,%d) = %v", parent, v, w, nw.Reaches(v, w))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSpansCoverRoutes checks Span on random forests: the stretches
// of every route hold exactly the positions of its buffers, each stretch
// is its heavy chain's consecutive positions, and there are at most
// log₂ n + 1 of them; a path route is one stretch.
func TestQuickSpansCoverRoutes(t *testing.T) {
	check := func(nw *Network) bool {
		n := nw.Len()
		for src := NodeID(0); int(src) < n; src++ {
			for dst := nw.Next(src); dst != None; dst = nw.Next(dst) {
				want := map[int]bool{}
				for u := src; u != dst; u = nw.Next(u) {
					want[int(nw.pre[u])] = true
				}
				spans := 0
				for u := src; u != dst; spans++ {
					lo, hi, rest := nw.Span(u, dst)
					for pos := lo; pos <= hi; pos++ {
						if !want[pos] {
							t.Logf("route %d→%d: span [%d,%d] holds position %d off the route or twice", src, dst, lo, hi, pos)
							return false
						}
						delete(want, pos)
					}
					u = rest
				}
				if len(want) > 0 || spans > bits.Len(uint(n)) || (nw.IsPath() && spans != 1) {
					t.Logf("route %d→%d: %d spans miss %d positions", src, dst, spans, len(want))
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz)%60
		order := rng.Perm(n)
		parent := make([]NodeID, n)
		for i, v := range order {
			parent[v] = None
			if i >= 1 && rng.Intn(8) > 0 {
				parent[v] = NodeID(order[rng.Intn(i)])
			}
		}
		nw, err := NewForest(parent)
		return err == nil && check(nw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// A spine 16 → … → 31 whose nodes each also take a leaf, numbered
	// below the spine: only a chain that follows the larger subtree keeps
	// a spine route in few stretches.
	parent := make([]NodeID, 32)
	for i := range 16 {
		parent[i], parent[16+i] = NodeID(16+i), NodeID(17+i)
	}
	parent[31] = None
	broom, err := NewTree(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*Network{MustPath(2), MustPath(33), broom} {
		if !check(nw) {
			t.Errorf("%d nodes: spans do not cover routes", nw.Len())
		}
	}
}

func TestRouteAndDist(t *testing.T) {
	nw := MustPath(5)
	route, err := nw.Route(1, 4)
	if err != nil {
		t.Fatalf("Route(1,4): %v", err)
	}
	want := []NodeID{1, 2, 3, 4}
	if len(route) != len(want) {
		t.Fatalf("Route(1,4) = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("Route(1,4) = %v, want %v", route, want)
		}
	}
	if _, err := nw.Route(4, 1); err == nil {
		t.Error("Route(4,1) succeeded, want error")
	}
	if d, err := nw.Dist(1, 4); err != nil || d != 3 {
		t.Errorf("Dist(1,4) = %d, %v, want 3, nil", d, err)
	}
	if d, err := nw.Dist(2, 2); err != nil || d != 0 {
		t.Errorf("Dist(2,2) = %d, %v, want 0, nil", d, err)
	}
	if _, err := nw.Dist(3, 0); err == nil {
		t.Error("Dist(3,0) succeeded, want error")
	}
	if _, err := nw.Dist(-1, 0); err == nil {
		t.Error("Dist(-1,0) succeeded, want error")
	}
}

func TestSubtree(t *testing.T) {
	tree, err := NewTree([]NodeID{2, 2, 4, 4, None})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Subtree(2)
	want := []NodeID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Subtree(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subtree(2) = %v, want %v", got, want)
		}
	}
	if got := tree.Subtree(4); len(got) != 5 {
		t.Errorf("Subtree(root) = %v, want all 5 nodes", got)
	}
	if got := tree.Subtree(3); len(got) != 1 || got[0] != 3 {
		t.Errorf("Subtree(leaf 3) = %v, want [3]", got)
	}
}

func TestTopoOrder(t *testing.T) {
	tree, err := NewTree([]NodeID{2, 2, 4, 4, None})
	if err != nil {
		t.Fatal(err)
	}
	order := tree.TopoOrder()
	pos := make(map[NodeID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < tree.Len(); v++ {
		if p := tree.Next(NodeID(v)); p != None && pos[NodeID(v)] > pos[p] {
			t.Errorf("node %d appears after its next hop %d", v, p)
		}
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(4)
	if err := b.Edge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Edge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Edge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Edge(0, 2); err == nil {
		t.Error("duplicate out-edge accepted")
	}
	if err := b.Edge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	nw, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := nw.Next(1); got != 3 {
		t.Errorf("Next(1) = %d, want 3", got)
	}
}

func TestGenerators(t *testing.T) {
	t.Run("caterpillar", func(t *testing.T) {
		nw, err := CaterpillarTree(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if nw.Len() != 12 {
			t.Errorf("Len = %d, want 12", nw.Len())
		}
		if got := len(nw.Sinks()); got != 1 {
			t.Errorf("sinks = %d, want 1", got)
		}
		// Each spine node except the last has 1 path child + 2 legs.
		if got := len(nw.Children(1)); got != 3 {
			t.Errorf("Children(1) = %d, want 3", got)
		}
	})
	t.Run("caterpillar errors", func(t *testing.T) {
		if _, err := CaterpillarTree(1, 2); err == nil {
			t.Error("want error for spine 1")
		}
		if _, err := CaterpillarTree(3, -1); err == nil {
			t.Error("want error for negative legs")
		}
	})
	t.Run("binary", func(t *testing.T) {
		nw, err := BinaryTree(3)
		if err != nil {
			t.Fatal(err)
		}
		if nw.Len() != 15 {
			t.Errorf("Len = %d, want 15", nw.Len())
		}
		root := nw.Sinks()[0]
		if root != 14 {
			t.Errorf("root = %d, want 14", root)
		}
		if got := len(nw.Children(root)); got != 2 {
			t.Errorf("root children = %d, want 2", got)
		}
		if got := nw.MaxDepth(); got != 3 {
			t.Errorf("MaxDepth = %d, want 3", got)
		}
		if _, err := BinaryTree(0); err == nil {
			t.Error("want error for height 0")
		}
	})
	t.Run("spider", func(t *testing.T) {
		nw, err := SpiderTree(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if nw.Len() != 13 {
			t.Errorf("Len = %d, want 13", nw.Len())
		}
		if got := len(nw.Children(nw.Sinks()[0])); got != 3 {
			t.Errorf("root children = %d, want 3 arms", got)
		}
		if got := nw.Depth(0); got != 4 {
			t.Errorf("Depth(0) = %d, want 4", got)
		}
		if _, err := SpiderTree(0, 3); err == nil {
			t.Error("want error for 0 arms")
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			nw, err := RandomTree(2+rng.Intn(50), rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(nw.Sinks()); got != 1 {
				t.Errorf("random tree has %d roots, want 1", got)
			}
		}
		if _, err := RandomTree(1, rng); err == nil {
			t.Error("want error for n=1")
		}
	})
}

func TestQuickRandomTreeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz)%60
		rng := rand.New(rand.NewSource(seed))
		nw, err := RandomTree(n, rng)
		if err != nil {
			return false
		}
		root := nw.Sinks()[0]
		// Every node reaches the root; routes have length Depth+1.
		for v := 0; v < n; v++ {
			if !nw.Reaches(NodeID(v), root) {
				return false
			}
			route, err := nw.Route(NodeID(v), root)
			if err != nil || len(route) != nw.Depth(NodeID(v))+1 {
				return false
			}
		}
		// Subtree sizes sum to total path lengths: Σ|Subtree(v)| = Σ(depth+1).
		sum, want := 0, 0
		for v := 0; v < n; v++ {
			sum += len(nw.Subtree(NodeID(v)))
			want += nw.Depth(NodeID(v)) + 1
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewForestRejectsCycles(t *testing.T) {
	cases := [][]NodeID{
		{1, 0, None},       // 2-cycle off to the side of a root
		{1, 2, 0, None},    // 3-cycle
		{None, 2, 3, 4, 2}, // cycle 2→3→4→2 reachable from nothing
	}
	for _, parent := range cases {
		if nw, err := NewForest(parent); err == nil {
			t.Errorf("NewForest(%v) accepted a cyclic parent vector (%d nodes)", parent, nw.Len())
		}
	}
	// A long chain into a far cycle must also be caught (BFS from sinks
	// never reaches it).
	parent := make([]NodeID, 10)
	for i := 0; i < 8; i++ {
		parent[i] = NodeID(i + 1)
	}
	parent[8] = 9
	parent[9] = 8 // 8 ⇄ 9
	parent[0] = None
	if _, err := NewForest(parent); err == nil {
		t.Error("NewForest accepted a chain feeding a 2-cycle")
	}
}

func TestSpiderTreeDegenerateArms(t *testing.T) {
	if _, err := SpiderTree(0, 3); err == nil {
		t.Error("SpiderTree(0, 3) accepted zero arms")
	}
	if _, err := SpiderTree(3, 0); err == nil {
		t.Error("SpiderTree(3, 0) accepted zero-length arms")
	}
	// The minimal spider is a path of 2.
	nw, err := SpiderTree(1, 1)
	if err != nil {
		t.Fatalf("SpiderTree(1, 1): %v", err)
	}
	if nw.Len() != 2 || len(nw.Sinks()) != 1 {
		t.Errorf("SpiderTree(1,1): %d nodes, %d sinks; want 2 nodes, 1 sink", nw.Len(), len(nw.Sinks()))
	}
}

func TestCaterpillarTreeZeroLegs(t *testing.T) {
	// Zero legs degenerates to the spine path; it must build, not error.
	nw, err := CaterpillarTree(5, 0)
	if err != nil {
		t.Fatalf("CaterpillarTree(5, 0): %v", err)
	}
	if nw.Len() != 5 {
		t.Errorf("CaterpillarTree(5,0) has %d nodes, want 5", nw.Len())
	}
	for v := 0; v < 4; v++ {
		if nw.Next(NodeID(v)) != NodeID(v+1) {
			t.Errorf("CaterpillarTree(5,0): next(%d) = %d, want %d", v, nw.Next(NodeID(v)), v+1)
		}
	}
	if _, err := CaterpillarTree(5, -1); err == nil {
		t.Error("CaterpillarTree(5, -1) accepted negative legs")
	}
	if _, err := CaterpillarTree(1, 2); err == nil {
		t.Error("CaterpillarTree(1, 2) accepted a single-node spine")
	}
}

func TestBandwidthOptionValidation(t *testing.T) {
	if _, err := NewPath(4, WithUniformBandwidth(0)); err == nil {
		t.Error("NewPath accepted uniform bandwidth 0")
	}
	if _, err := NewPath(4, WithUniformBandwidth(-3)); err == nil {
		t.Error("NewPath accepted negative uniform bandwidth")
	}
	if _, err := NewPath(4, WithLinkBandwidth(4, 2)); err == nil {
		t.Error("NewPath accepted a bandwidth for out-of-range node 4")
	}
	if _, err := NewPath(4, WithLinkBandwidth(-1, 2)); err == nil {
		t.Error("NewPath accepted a bandwidth for node -1")
	}
	if _, err := NewPath(4, WithLinkBandwidth(1, 0)); err == nil {
		t.Error("NewPath accepted per-link bandwidth 0")
	}
	// Options apply in order: a per-link override may follow the uniform
	// base, regardless of argument position.
	nw, err := NewPath(4, WithLinkBandwidth(1, 5), WithUniformBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Bandwidth(1) != 5 || nw.Bandwidth(0) != 2 {
		t.Errorf("bandwidths = [%d %d], want override 5 at node 1 over uniform 2", nw.Bandwidth(0), nw.Bandwidth(1))
	}
}

func TestWithBandwidthsDerivesCopy(t *testing.T) {
	base := MustPath(6)
	fast, err := base.WithBandwidths(WithUniformBandwidth(3))
	if err != nil {
		t.Fatal(err)
	}
	if base.Bandwidth(0) != 1 {
		t.Errorf("base network mutated: Bandwidth(0) = %d", base.Bandwidth(0))
	}
	if fast.Bandwidth(0) != 3 {
		t.Errorf("derived network Bandwidth(0) = %d, want 3", fast.Bandwidth(0))
	}
	if fast.Len() != base.Len() || fast.Next(0) != base.Next(0) {
		t.Error("derived network changed topology")
	}
	if _, err := base.WithBandwidths(WithUniformBandwidth(0)); err == nil {
		t.Error("WithBandwidths accepted bandwidth 0")
	}
}

func TestBuilderForwardsBandwidthOptions(t *testing.T) {
	b := NewBuilder(3)
	if err := b.Edge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Edge(1, 2); err != nil {
		t.Fatal(err)
	}
	nw, err := b.Build(WithUniformBandwidth(4))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Bandwidth(0) != 4 {
		t.Errorf("Builder.Build dropped bandwidth options: B(0) = %d", nw.Bandwidth(0))
	}
}
