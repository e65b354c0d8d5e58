package core

import (
	"cmp"
	"fmt"
	"slices"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/sim"
)

// TreePTS is the directed-tree generalization of PTS (Appendix B.2,
// Proposition B.3): all packets are destined for their component's root;
// the protocol activates every buffer that is an ancestor-or-self of a bad
// buffer, i.e. the union of root-paths of the minimal bad antichain. Max
// load ≤ 2 + σ. On capacitated links each activated buffer forwards up to
// B(v) packets (B = 1 is the paper's rule exactly).
//
// Forests are supported (the paper's §1 notes the union-of-trees case as
// the output of many routing algorithms): components never share links, so
// the sweep runs on all of them simultaneously and the per-component
// analysis is unchanged.
//
// Decide costs O(n) per round over scratch sized at Attach, and allocates
// nothing once its decision scratch has grown.
type TreePTS struct {
	drainWhenIdle bool
	nw            *network.Network
	topo          []network.NodeID
	// scratch, sized at Attach and reused across rounds:
	active []bool // per node: activated this round
	sent   []int  // per node: packets forwarded this round
	out    []sim.Forward
}

var _ sim.Protocol = (*TreePTS)(nil)

// TreePTSOption configures TreePTS.
type TreePTSOption func(*TreePTS)

// TreePTSWithDrain activates drain-when-idle (liveness extension: on rounds
// with no bad buffer, the same sweep runs over non-empty buffers; as in
// PTS, heads of activated paths forward without receiving, so no badness is
// created).
func TreePTSWithDrain() TreePTSOption {
	return func(p *TreePTS) { p.drainWhenIdle = true }
}

// NewTreePTS returns a TreePTS instance.
func NewTreePTS(opts ...TreePTSOption) *TreePTS {
	p := &TreePTS{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Protocol.
func (p *TreePTS) Name() string {
	if p.drainWhenIdle {
		return "TreePTS+drain"
	}
	return "TreePTS"
}

// Attach implements sim.Protocol. The network may be an in-tree or an
// in-forest; every declared destination must be a root.
func (p *TreePTS) Attach(nw *network.Network, _ adversary.Bound, dests []network.NodeID) error {
	for _, d := range dests {
		if !nw.Valid(d) || nw.Next(d) != network.None {
			return fmt.Errorf("core: TreePTS handles root destinations only, adversary declares %d (use TreePPTS)", d)
		}
	}
	p.nw = nw
	p.topo = nw.TopoOrder()
	p.active = make([]bool, nw.Len())
	p.sent = make([]int, nw.Len())
	return nil
}

// Decide implements sim.Protocol: active(v) ⇔ bad(v) ∨ ∃ child c active(c),
// computed leaves-first.
func (p *TreePTS) Decide(v sim.View) ([]sim.Forward, error) {
	if !p.sweep(v, 2) && p.drainWhenIdle {
		p.sweep(v, 1)
	}
	// Cascaded rates on capacitated links: walk roots-first (reverse
	// topological order) so each sender sees its parent's rate; full B only
	// into the root, where packets are absorbed. B = 1 degenerates to the
	// paper's one-packet rule. An active node's parent is active, so every
	// rate read here was written this round.
	out := p.out[:0]
	for idx := len(p.topo) - 1; idx >= 0; idx-- {
		node := p.topo[idx]
		up := p.nw.Next(node)
		if !p.active[node] || up == network.None {
			continue
		}
		limit := v.Bandwidth(node)
		if p.nw.Next(up) != network.None {
			limit = min(limit, max(1, p.sent[up]))
		}
		n0 := len(out)
		out = appendLIFOTop(out, node, v.Packets(node), limit)
		p.sent[node] = len(out) - n0
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// sweep marks ancestors-or-self of every node with load ≥ threshold and
// reports whether any node qualifies.
func (p *TreePTS) sweep(v sim.View, threshold int) bool {
	clear(p.active)
	any := false
	for _, node := range p.topo { // leaves first
		if v.Load(node) >= threshold {
			p.active[node] = true
			any = true
		}
		if p.active[node] {
			if up := p.nw.Next(node); up != network.None {
				p.active[up] = true
			}
		}
	}
	return any
}

// TreePPTS is Algorithm 6: the directed-tree generalization of PPTS
// (Proposition 3.5). Destinations are processed in reverse topological
// order (root-most first); for each destination w_k, the minimal antichain
// of nodes holding bad k-pseudo-buffers is computed and the union of their
// paths to w_k is activated, excluding nodes already activated for earlier
// destinations. Max load ≤ 1 + d′ + σ, where d′ is the maximum number of
// destinations on any leaf-root path.
//
// Each round indexes the buffered packets once, collecting the bad
// (node, destination) pairs; the union of the paths from a destination's
// bad nodes equals the union from its minimal antichain. Each pair walks
// toward its destination and stops at the first claimed node, so the walks
// claim each node once. Decide thus costs O(n + P) for P buffered packets,
// plus a sort of the bad pairs; its scratch is sized at Attach, and it
// allocates nothing once its pair and decision scratch have grown.
type TreePPTS struct {
	nw   *network.Network
	topo []network.NodeID
	// scratch, sized at Attach and reused across rounds:
	seen  []int // per destination: last node found holding a packet for it, −1 if none
	badAt []int // per destination: last node found holding ≥ 2 packets for it, −1 if none
	dests []int // the destinations present
	pairs []badPair
	claim []int // per node: destination whose pseudo-buffer it forwards, −1 = inactive
	sent  []int // per node: packets forwarded this round
	out   []sim.Forward
}

// badPair is a node holding ≥ 2 packets for destination w.
type badPair struct{ node, w int }

var _ sim.Protocol = (*TreePPTS)(nil)

// NewTreePPTS returns a TreePPTS instance.
func NewTreePPTS() *TreePPTS { return &TreePPTS{} }

// Name implements sim.Protocol.
func (p *TreePPTS) Name() string { return "TreePPTS" }

// Attach implements sim.Protocol. Forests are supported: routes never
// leave their component, so the per-destination sweeps compose across
// components without interacting.
func (p *TreePPTS) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	if nw == nil {
		return fmt.Errorf("core: TreePPTS requires a network")
	}
	n := nw.Len()
	p.nw = nw
	p.topo = nw.TopoOrder()
	scratch := make([]int, 5*n)
	p.seen, p.badAt, p.claim, p.sent, p.dests = scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:4*n], scratch[4*n:4*n]
	for i := range scratch[:3*n] {
		scratch[i] = -1
	}
	return nil
}

// index collects, in one pass over round v's packets, the destinations
// present and the bad (node, destination) pairs. The previous round's
// entries are reset through its destination list.
func (p *TreePPTS) index(v sim.View) {
	for _, w := range p.dests {
		p.seen[w], p.badAt[w] = -1, -1
	}
	p.dests, p.pairs = p.dests[:0], p.pairs[:0]
	for _, node := range v.Occupied() {
		i := int(node)
		for _, pk := range v.Packets(node) {
			// A node's packets are scanned together, so a destination's
			// pseudo-buffer at i turns bad at its second packet there.
			switch w := int(pk.Dst); {
			case p.seen[w] < 0:
				p.dests = append(p.dests, w)
				p.seen[w] = i
			case p.seen[w] != i:
				p.seen[w] = i
			case p.badAt[w] != i:
				p.badAt[w] = i
				p.pairs = append(p.pairs, badPair{node: i, w: w})
			}
		}
	}
}

// Decide implements sim.Protocol (Algorithm 6).
func (p *TreePPTS) Decide(v sim.View) ([]sim.Forward, error) {
	p.index(v)
	// Reverse topological order of destinations: w_i ≺ w_j ⇒ j processed
	// first. Sort by depth ascending (root-most first), ties by ID for
	// determinism.
	slices.SortFunc(p.pairs, func(a, b badPair) int {
		da, db := p.nw.Depth(network.NodeID(a.w)), p.nw.Depth(network.NodeID(b.w))
		return cmp.Or(cmp.Compare(da, db), cmp.Compare(a.w, b.w), cmp.Compare(a.node, b.node))
	})
	// A_k = (∪ Path(u, w)) \ A: walk each path toward w, claiming
	// unclaimed nodes (excluding w itself: packets destined w are
	// delivered on arrival, never forwarded out of w). A walk may stop at
	// the first claimed node: its claim came from a walk to w or to a
	// destination above w, and by induction every node from it up to that
	// destination, and so up to w, is claimed already.
	for _, bp := range p.pairs {
		w := network.NodeID(bp.w)
		for node := network.NodeID(bp.node); node != w && node != network.None && p.claim[node] < 0; node = p.nw.Next(node) {
			p.claim[node] = bp.w
		}
	}

	// Cascaded rates on capacitated links, roots-first so parents resolve
	// before children; full B only into the pseudo-buffer's destination.
	// A claimed node's next hop is its destination or claimed, so every
	// rate read here was written this round. The loop visits every node,
	// so it also clears the round's claims.
	out := p.out[:0]
	for idx := len(p.topo) - 1; idx >= 0; idx-- {
		node := p.topo[idx]
		w := p.claim[node]
		p.claim[node] = -1
		if w < 0 {
			continue
		}
		limit := v.Bandwidth(node)
		if up := p.nw.Next(node); int(up) != w {
			limit = min(limit, max(1, p.sent[up]))
		}
		n0 := len(out)
		out = appendTopFor(out, node, v.Packets(node), w, limit)
		p.sent[node] = len(out) - n0
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// DestinationDepth returns d′(G, W): the maximum number of destinations on
// any leaf-root path (the bound parameter of Proposition 3.5).
func DestinationDepth(nw *network.Network, dests []network.NodeID) int {
	isDest := make(map[network.NodeID]bool, len(dests))
	for _, d := range dests {
		isDest[d] = true
	}
	best := 0
	for _, leaf := range nw.Leaves() {
		count := 0
		for v := leaf; v != network.None; v = nw.Next(v) {
			if isDest[v] {
				count++
			}
		}
		if count > best {
			best = count
		}
	}
	return best
}
