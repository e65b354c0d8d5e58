package network

import (
	"fmt"
	"math/rand"
)

// Builder assembles an in-forest edge by edge and validates on Build. It is
// convenient for tests and generators; production call sites with a known
// shape should prefer NewPath / NewTree.
type Builder struct {
	n      int
	parent []NodeID
	set    []bool
}

// NewBuilder returns a builder for an n-node network with no edges. Every
// node starts as a root (next hop None).
func NewBuilder(n int) *Builder {
	parent := make([]NodeID, n)
	for i := range parent {
		parent[i] = None
	}
	return &Builder{n: n, parent: parent, set: make([]bool, n)}
}

// Edge directs an edge from u toward v (v becomes u's next hop). It returns
// an error if u already has an outgoing edge or either endpoint is invalid.
func (b *Builder) Edge(u, v NodeID) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("network: edge %d→%d out of range [0,%d)", u, v, b.n)
	}
	if b.set[u] {
		return fmt.Errorf("network: node %d already has an outgoing edge (in-forest requires out-degree ≤ 1)", u)
	}
	b.parent[u] = v
	b.set[u] = true
	return nil
}

// Build validates and returns the network; options (e.g. bandwidths) are
// forwarded to construction. The builder may not be reused after a
// successful Build.
func (b *Builder) Build(opts ...Option) (*Network, error) {
	return NewForest(b.parent, opts...)
}

// RandomTree returns a uniformly random-ish in-tree on n nodes rooted at
// node n−1: each node v < n−1 picks a parent uniformly from {v+1, …, n−1}.
// This yields trees whose leaf-root paths shrink logarithmically in
// expectation, exercising the d′ bound of Proposition 3.5 on non-degenerate
// shapes. The generator is deterministic given rng.
func RandomTree(n int, rng *rand.Rand, opts ...Option) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: random tree needs ≥ 2 nodes, got %d", n)
	}
	parent := make([]NodeID, n)
	for v := 0; v < n-1; v++ {
		parent[v] = NodeID(v + 1 + rng.Intn(n-1-v))
	}
	parent[n-1] = None
	return newTree(parent, opts)
}

// CaterpillarTree returns a path 0→1→…→(spine−1) with `legs` extra leaves
// attached to each spine node. Total nodes: spine·(1+legs). The spine
// carries long routes while the legs inject cross traffic — a worst-case
// shape for per-node buffer pressure on trees.
func CaterpillarTree(spine, legs int, opts ...Option) (*Network, error) {
	if spine < 2 || legs < 0 {
		return nil, fmt.Errorf("network: caterpillar needs spine ≥ 2 and legs ≥ 0, got %d, %d", spine, legs)
	}
	n := spine * (1 + legs)
	parent := make([]NodeID, n)
	for i := 0; i < spine-1; i++ {
		parent[i] = NodeID(i + 1)
	}
	parent[spine-1] = None
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			leaf := spine + s*legs + l
			parent[leaf] = NodeID(s)
		}
	}
	return newTree(parent, opts)
}

// BinaryTree returns a complete binary in-tree of the given height (height 0
// is a single root — rejected, since networks need ≥ 2 nodes). Node 0 is the
// root in heap order internally, but IDs are re-labeled so the root is the
// last node, keeping the "sink has the largest ID" convention of paths.
func BinaryTree(height int, opts ...Option) (*Network, error) {
	if height < 1 {
		return nil, fmt.Errorf("network: binary tree needs height ≥ 1, got %d", height)
	}
	n := 1<<(height+1) - 1
	// Heap order: node i's parent is (i−1)/2, root is 0. Relabel i → n−1−i so
	// the root becomes n−1.
	parent := make([]NodeID, n)
	for i := 1; i < n; i++ {
		parent[n-1-i] = NodeID(n - 1 - (i-1)/2)
	}
	parent[n-1] = None
	return newTree(parent, opts)
}

// SpiderTree returns `arms` disjoint directed paths of the given length all
// merging into a single root: a star of paths. It models the "union of
// single-destination trees" case the paper highlights as the output of many
// routing algorithms. Total nodes: arms·length + 1; the root is the last ID.
func SpiderTree(arms, length int, opts ...Option) (*Network, error) {
	if arms < 1 || length < 1 {
		return nil, fmt.Errorf("network: spider needs arms ≥ 1 and length ≥ 1, got %d, %d", arms, length)
	}
	n := arms*length + 1
	root := NodeID(n - 1)
	parent := make([]NodeID, n)
	parent[root] = None
	for a := 0; a < arms; a++ {
		base := a * length
		for i := 0; i < length; i++ {
			if i == length-1 {
				parent[base+i] = root
			} else {
				parent[base+i] = NodeID(base + i + 1)
			}
		}
	}
	return newTree(parent, opts)
}
