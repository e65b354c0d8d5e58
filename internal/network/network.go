// Package network provides the topology substrate for adversarial-queuing
// simulations: directed in-forests, in which every node has at most one
// outgoing edge ("next hop"). Both topologies studied in the paper — the
// directed path (§2) and directed trees with all edges oriented toward the
// root (§3.3, Appendix B.2) — are in-forests, and the one-outgoing-edge
// property is what makes a forwarding round expressible as "each node
// forwards at most B(v) packets", where B(v) is the bandwidth of v's unique
// outgoing link.
//
// Links default to the paper's unit capacity (B ≡ 1); the constructors
// accept WithUniformBandwidth and WithLinkBandwidth options to build
// capacitated topologies for the bandwidth half of the space-bandwidth
// tradeoff.
package network

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. Nodes of an n-node network are 0..n-1, matching
// the paper's ⟨n⟩ = {0, …, n−1} convention. For paths, the ID is the
// position on the line.
type NodeID int

// None is the sentinel "no node" value (e.g. the next hop of a sink).
const None NodeID = -1

// Network is an immutable directed in-forest with per-link bandwidths.
// Construct one with NewPath, NewTree, or via Builder; the constructors
// validate shape so that methods never fail at simulation time.
type Network struct {
	next []NodeID // next[v] = unique out-neighbor, None for sinks
	// children[childAt[v]:childAt[v+1]] are v's in-neighbors, ascending.
	children  []NodeID
	childAt   []int32
	depth     []int32 // hop count to the sink of v's component
	sinks     []NodeID
	isPath    bool
	bandwidth []int // bandwidth[v] = capacity of the link out of v (sinks: 1, unused)
	// One preorder numbering of the reversed forest, one sink's tree after
	// another, that visits each node's largest child subtree first: v's
	// subtree, the nodes whose route passes through v, holds exactly the
	// positions [pre[v], end[v]), and each heavy chain (a node, its largest
	// child, that child's largest child, …) holds consecutive positions,
	// starting at its head head[v], the chain's node nearest the sink.
	pre, end, head []int32
}

// Option configures a Network under construction (today: link bandwidths).
// Options are applied in order, so a WithLinkBandwidth override may follow a
// WithUniformBandwidth base.
type Option func(*netConfig)

// netConfig accumulates options until the node count is known.
type netConfig struct {
	uniform   int
	perNodeIn []struct {
		v NodeID
		b int
	}
}

// WithUniformBandwidth sets every link's bandwidth to b ≥ 1. The paper's
// model is b = 1 (the default); larger b lets each node forward up to b
// packets per round, which is the bandwidth axis of the space-bandwidth
// tradeoff.
func WithUniformBandwidth(b int) Option {
	return func(c *netConfig) { c.uniform = b }
}

// WithLinkBandwidth sets the bandwidth of the link out of node v to b ≥ 1,
// overriding the uniform default for that link. Construction fails if v is
// out of range.
func WithLinkBandwidth(v NodeID, b int) Option {
	return func(c *netConfig) {
		c.perNodeIn = append(c.perNodeIn, struct {
			v NodeID
			b int
		}{v, b})
	}
}

// resolveBandwidth validates the accumulated options against the node count
// and produces the per-node bandwidth vector.
func resolveBandwidth(n int, opts []Option) ([]int, error) {
	c := netConfig{uniform: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.uniform < 1 {
		return nil, fmt.Errorf("network: uniform bandwidth must be ≥ 1, got %d", c.uniform)
	}
	bw := make([]int, n)
	for i := range bw {
		bw[i] = c.uniform
	}
	for _, e := range c.perNodeIn {
		if e.v < 0 || int(e.v) >= n {
			return nil, fmt.Errorf("network: bandwidth for out-of-range node %d (network has %d nodes)", e.v, n)
		}
		if e.b < 1 {
			return nil, fmt.Errorf("network: link bandwidth of node %d must be ≥ 1, got %d", e.v, e.b)
		}
		bw[e.v] = e.b
	}
	return bw, nil
}

// NewPath returns the directed path on n nodes: 0 → 1 → … → n−1.
// It returns an error if n < 2.
func NewPath(n int, opts ...Option) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: path needs ≥ 2 nodes, got %d", n)
	}
	next := make([]NodeID, n)
	for i := 0; i < n-1; i++ {
		next[i] = NodeID(i + 1)
	}
	next[n-1] = None
	return fromNext(next, true, opts)
}

// MustPath is NewPath but panics on error; intended for tests and examples
// with constant sizes.
func MustPath(n int, opts ...Option) *Network {
	nw, err := NewPath(n, opts...)
	if err != nil {
		panic(err)
	}
	return nw
}

// NewTree builds an in-tree (edges toward the root) from a parent vector:
// parent[v] is v's next hop toward the root, and exactly one node (the root)
// has parent[v] == None. It returns an error if the vector does not describe
// a single rooted tree.
func NewTree(parent []NodeID, opts ...Option) (*Network, error) {
	return newTree(append([]NodeID(nil), parent...), opts)
}

// newTree is NewTree on a parent vector the network may keep.
func newTree(parent []NodeID, opts []Option) (*Network, error) {
	nw, err := fromNext(parent, false, opts)
	if err != nil {
		return nil, err
	}
	if len(nw.sinks) != 1 {
		return nil, fmt.Errorf("network: tree must have exactly one root, got %d", len(nw.sinks))
	}
	return nw, nil
}

// NewForest builds an in-forest (a disjoint union of in-trees) from a parent
// vector; multiple roots are allowed.
func NewForest(parent []NodeID, opts ...Option) (*Network, error) {
	return fromNext(append([]NodeID(nil), parent...), false, opts)
}

// fromNext validates the next-hop vector: in range, acyclic, ≥ 1 sink. It
// costs O(n) and keeps next.
func fromNext(next []NodeID, isPath bool, opts []Option) (*Network, error) {
	n := len(next)
	if n == 0 {
		return nil, fmt.Errorf("network: empty node set")
	}
	// Children in one flat array: count them, turn the counts into each
	// block's end, then fill every block from its end, so that childAt[v]
	// ends at the block's start and each block is in ascending ID order.
	childAt := make([]int32, n+1)
	var sinks []NodeID
	for v, p := range next {
		switch {
		case p == None:
			sinks = append(sinks, NodeID(v))
		case p < 0 || int(p) >= n:
			return nil, fmt.Errorf("network: node %d has out-of-range next hop %d", v, p)
		case int(p) == v:
			return nil, fmt.Errorf("network: node %d has a self-loop", v)
		default:
			childAt[p]++
		}
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("network: no sink (next-hop graph has a cycle)")
	}
	for v := 1; v <= n; v++ {
		childAt[v] += childAt[v-1]
	}
	children := make([]NodeID, childAt[n])
	for v := n - 1; v >= 0; v-- {
		if p := next[v]; p != None {
			childAt[p]--
			children[childAt[p]] = NodeID(v)
		}
	}

	ints := make([]int32, 5*n)
	depth, pre, end, head, order := ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n], ints[3*n:4*n:4*n], ints[4*n:4*n]
	// Breadth first from the sinks along reverse edges: every node enters
	// order once, after its next hop. Unreached nodes are on a cycle.
	for v := range depth {
		depth[v] = -1
	}
	for _, s := range sinks {
		depth[s] = 0
		order = append(order, int32(s))
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, c := range children[childAt[v]:childAt[v+1]] {
			depth[c] = depth[v] + 1
			order = append(order, int32(c))
		}
	}
	if len(order) < n {
		for v, d := range depth {
			if d < 0 {
				return nil, fmt.Errorf("network: node %d is on a directed cycle", v)
			}
		}
	}
	// Subtree sizes, held in end until positions are known.
	for v := range end {
		end[v] = 1
	}
	for i := n - 1; i >= 0; i-- {
		if p := next[order[i]]; p != None {
			end[p] += end[order[i]]
		}
	}
	// Positions, parents first: v's block opens with v, then its largest
	// child's block (ties to the lowest ID), which continues v's chain,
	// then its other children's blocks in ascending ID order.
	base := int32(0)
	for _, v := range order {
		if next[v] == None {
			pre[v], head[v] = base, v
			base += end[v]
		}
		kids := children[childAt[v]:childAt[v+1]]
		heavy := NodeID(None)
		for _, c := range kids {
			if heavy == None || end[c] > end[heavy] {
				heavy = c
			}
		}
		at := pre[v] + 1
		if heavy != None {
			pre[heavy], head[heavy] = at, head[v]
			at += end[heavy]
		}
		for _, c := range kids {
			if c != heavy {
				pre[c], head[c] = at, int32(c)
				at += end[c]
			}
		}
		end[v] += pre[v]
	}
	bw, err := resolveBandwidth(n, opts)
	if err != nil {
		return nil, err
	}
	return &Network{next: next, children: children, childAt: childAt, depth: depth, pre: pre, end: end, head: head,
		sinks: sinks, isPath: isPath, bandwidth: bw}, nil
}

// Len returns the number of nodes.
func (nw *Network) Len() int { return len(nw.next) }

// Next returns v's unique out-neighbor, or None if v is a sink.
func (nw *Network) Next(v NodeID) NodeID { return nw.next[v] }

// Children returns the in-neighbors of v (nodes whose next hop is v). The
// returned slice is shared; callers must not modify it.
func (nw *Network) Children(v NodeID) []NodeID {
	lo, hi := nw.childAt[v], nw.childAt[v+1]
	return nw.children[lo:hi:hi]
}

// Depth returns the hop distance from v to the sink of its component.
func (nw *Network) Depth(v NodeID) int { return int(nw.depth[v]) }

// Sinks returns the sink nodes (the root, for a tree; node n−1, for a path).
// The returned slice is shared; callers must not modify it.
func (nw *Network) Sinks() []NodeID { return nw.sinks }

// IsPath reports whether the network was built as a directed path, in which
// case NodeID coincides with line position.
func (nw *Network) IsPath() bool { return nw.isPath }

// Bandwidth returns B(v), the capacity of the link out of v: the maximum
// number of packets v may forward in one round. For sinks (which have no
// outgoing link) it returns the configured default; the engine never lets a
// sink forward regardless.
func (nw *Network) Bandwidth(v NodeID) int { return nw.bandwidth[v] }

// BottleneckBandwidth returns the minimum link bandwidth over all non-sink
// nodes. It caps the usable injection rate: a sustained per-buffer rate
// above the bottleneck is undeliverable no matter the protocol, so demand
// bounds are admissible only for ρ ≤ BottleneckBandwidth.
func (nw *Network) BottleneckBandwidth() int {
	best := 0
	for v, next := range nw.next {
		if next == None {
			continue
		}
		if best == 0 || nw.bandwidth[v] < best {
			best = nw.bandwidth[v]
		}
	}
	if best == 0 {
		best = 1 // unreachable: every valid network has ≥ 1 edge
	}
	return best
}

// UniformBandwidth returns (B, true) when every non-sink link has the same
// bandwidth B, and (0, false) otherwise.
func (nw *Network) UniformBandwidth() (int, bool) {
	b := 0
	for v, next := range nw.next {
		if next == None {
			continue
		}
		if b == 0 {
			b = nw.bandwidth[v]
		} else if nw.bandwidth[v] != b {
			return 0, false
		}
	}
	if b == 0 {
		b = 1
	}
	return b, true
}

// WithBandwidths returns a copy of the network with its link bandwidths
// replaced by the given options (the topology is shared; only the bandwidth
// vector is rebuilt). It is how sweep axes impose a bandwidth on an
// existing topology without reconstructing it.
func (nw *Network) WithBandwidths(opts ...Option) (*Network, error) {
	bw, err := resolveBandwidth(len(nw.next), opts)
	if err != nil {
		return nil, err
	}
	out := *nw
	out.bandwidth = bw
	return &out, nil
}

// Valid reports whether v names a node of the network.
func (nw *Network) Valid(v NodeID) bool { return v >= 0 && int(v) < len(nw.next) }

// Reaches reports whether w lies on the directed path from v to its sink
// (inclusive of v itself). For trees this is the partial order v ⪯ w of
// Appendix B.2 restricted to comparable pairs; for paths it is v ≤ w. It
// costs O(1): w is on v's route exactly when v is in w's subtree, that is,
// when v's preorder position falls in w's interval.
func (nw *Network) Reaches(v, w NodeID) bool {
	return nw.Valid(v) && nw.Valid(w) && nw.pre[w] <= nw.pre[v] && nw.pre[v] < nw.end[w]
}

// SubtreeSize returns the number of nodes whose route passes through v,
// v included.
func (nw *Network) SubtreeSize(v NodeID) int { return int(nw.end[v] - nw.pre[v]) }

// Span returns the first stretch of the buffers on the route from src to
// dst: src, Next(src), … up to the head of src's heavy chain or to dst's
// child, whichever comes first. Their positions in the heavy-chain
// preorder are exactly [lo, hi], and rest is where the route goes on: dst
// when the stretch ends it. A route thus splits into O(log n) stretches,
// and a path route is one. dst must be reachable from src and differ
// from it.
func (nw *Network) Span(src, dst NodeID) (lo, hi int, rest NodeID) {
	h := nw.head[src]
	if h == nw.head[dst] {
		return int(nw.pre[dst]) + 1, int(nw.pre[src]), dst
	}
	return int(nw.pre[h]), int(nw.pre[src]), nw.next[h]
}

// Route returns the node sequence from src to dst following next hops,
// inclusive of both endpoints. It returns an error if dst is not reachable
// from src.
func (nw *Network) Route(src, dst NodeID) ([]NodeID, error) {
	if !nw.Valid(src) || !nw.Valid(dst) {
		return nil, fmt.Errorf("network: route %d→%d: node out of range", src, dst)
	}
	capHint := int(nw.depth[src]-nw.depth[dst]) + 1
	if capHint < 1 {
		capHint = 1
	}
	route := make([]NodeID, 0, capHint)
	for u := src; u != None; u = nw.next[u] {
		route = append(route, u)
		if u == dst {
			return route, nil
		}
	}
	return nil, fmt.Errorf("network: destination %d not reachable from %d", dst, src)
}

// Dist returns the hop count from src to dst, or an error if unreachable.
func (nw *Network) Dist(src, dst NodeID) (int, error) {
	if !nw.Valid(src) || !nw.Valid(dst) {
		return 0, fmt.Errorf("network: dist %d→%d: node out of range", src, dst)
	}
	d := 0
	for u := src; u != None; u = nw.next[u] {
		if u == dst {
			return d, nil
		}
		d++
	}
	return 0, fmt.Errorf("network: destination %d not reachable from %d", dst, src)
}

// Subtree returns all nodes u with u ⪯ v (v's subtree, including v): the
// nodes whose route to the sink passes through v. Appendix B.2 calls this
// U_v. The result is freshly allocated and sorted.
func (nw *Network) Subtree(v NodeID) []NodeID {
	var out []NodeID
	stack := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, nw.Children(u)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Leaves returns the nodes with no in-neighbors, sorted.
func (nw *Network) Leaves() []NodeID {
	var out []NodeID
	for v := range nw.next {
		if nw.childAt[v] == nw.childAt[v+1] {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// TopoOrder returns the nodes sorted so that every node appears before its
// next hop (leaves first, sinks last). Ties are broken by NodeID.
func (nw *Network) TopoOrder() []NodeID {
	out := make([]NodeID, nw.Len())
	for i := range out {
		out[i] = NodeID(i)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if nw.depth[a] != nw.depth[b] {
			return nw.depth[a] > nw.depth[b]
		}
		return a < b
	})
	return out
}

// MaxDepth returns the largest node depth (the height of the forest).
func (nw *Network) MaxDepth() int {
	m := int32(0)
	for _, d := range nw.depth {
		m = max(m, d)
	}
	return int(m)
}
