package core

import (
	"fmt"
	"sort"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
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
type TreePTS struct {
	drainWhenIdle bool
	nw            *network.Network
	roots         map[network.NodeID]bool
	topo          []network.NodeID
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
	p.nw = nw
	p.roots = make(map[network.NodeID]bool, len(nw.Sinks()))
	for _, s := range nw.Sinks() {
		p.roots[s] = true
	}
	p.topo = nw.TopoOrder()
	for _, d := range dests {
		if !p.roots[d] {
			return fmt.Errorf("core: TreePTS handles root destinations only, adversary declares %d (use TreePPTS)", d)
		}
	}
	return nil
}

// Decide implements sim.Protocol: active(v) ⇔ bad(v) ∨ ∃ child c active(c),
// computed leaves-first.
func (p *TreePTS) Decide(v sim.View) ([]sim.Forward, error) {
	active := p.sweep(v, 2)
	if active == nil && p.drainWhenIdle {
		active = p.sweep(v, 1)
	}
	// Cascaded rates on capacitated links: walk roots-first (reverse
	// topological order) so each sender sees its parent's rate; full B only
	// into the root, where packets are absorbed. B = 1 degenerates to the
	// paper's one-packet rule.
	var out []sim.Forward
	sent := make([]int, p.nw.Len())
	for idx := len(p.topo) - 1; idx >= 0; idx-- {
		node := p.topo[idx]
		if !active[node] || p.roots[node] {
			continue
		}
		limit := v.Bandwidth(node)
		if up := p.nw.Next(node); !p.roots[up] {
			limit = min(limit, max(1, sent[up]))
		}
		n0 := len(out)
		out = appendLIFOTop(out, node, v.Packets(node), limit)
		sent[node] = len(out) - n0
	}
	return out, nil
}

// sweep marks ancestors-or-self of every node with load ≥ threshold;
// it returns nil when no node qualifies.
func (p *TreePTS) sweep(v sim.View, threshold int) map[network.NodeID]bool {
	active := make(map[network.NodeID]bool)
	any := false
	for _, node := range p.topo { // leaves first
		if v.Load(node) >= threshold {
			active[node] = true
			any = true
		}
		if active[node] {
			if up := p.nw.Next(node); up != network.None {
				active[up] = true
			}
		}
	}
	if !any {
		return nil
	}
	return active
}

// TreePPTS is Algorithm 6: the directed-tree generalization of PPTS
// (Proposition 3.5). Destinations are processed in reverse topological
// order (root-most first); for each destination w_k, the minimal antichain
// of nodes holding bad k-pseudo-buffers is computed and the union of their
// paths to w_k is activated, excluding nodes already activated for earlier
// destinations. Max load ≤ 1 + d′ + σ, where d′ is the maximum number of
// destinations on any leaf-root path.
type TreePPTS struct {
	nw   *network.Network
	topo []network.NodeID
}

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
	p.nw = nw
	p.topo = nw.TopoOrder()
	return nil
}

// Decide implements sim.Protocol (Algorithm 6).
func (p *TreePPTS) Decide(v sim.View) ([]sim.Forward, error) {
	// Pseudo-buffers by destination, discovered from the configuration.
	byDest := make(map[network.NodeID]map[network.NodeID][]packet.Packet)
	var dests []network.NodeID
	n := p.nw.Len()
	for i := 0; i < n; i++ {
		node := network.NodeID(i)
		for _, pk := range v.Packets(node) {
			per := byDest[pk.Dst]
			if per == nil {
				per = make(map[network.NodeID][]packet.Packet)
				byDest[pk.Dst] = per
				dests = append(dests, pk.Dst)
			}
			per[node] = append(per[node], pk)
		}
	}
	// Reverse topological order of destinations: w_i ≺ w_j ⇒ j processed
	// first. Sort by depth ascending (root-most first), ties by ID for
	// determinism.
	sort.Slice(dests, func(a, b int) bool {
		da, db := p.nw.Depth(dests[a]), p.nw.Depth(dests[b])
		if da != db {
			return da < db
		}
		return dests[a] < dests[b]
	})

	// activeFor[node] = destination whose pseudo-buffer node forwards;
	// network.None marks "not active".
	activeFor := make([]network.NodeID, n)
	for i := range activeFor {
		activeFor[i] = network.None
	}
	for _, w := range dests {
		per := byDest[w]
		// Bad set B_k: nodes with |L_k| ≥ 2.
		var badNodes []network.NodeID
		for node, ps := range per {
			if len(ps) >= 2 {
				badNodes = append(badNodes, node)
			}
		}
		if len(badNodes) == 0 {
			continue
		}
		// Minimal antichain min(B_k): drop nodes with a bad strict
		// descendant in B_k.
		sort.Slice(badNodes, func(a, b int) bool { return badNodes[a] < badNodes[b] })
		minimal := badNodes[:0:0]
		for _, u := range badNodes {
			hasDesc := false
			for _, o := range badNodes {
				if o != u && p.nw.Reaches(o, u) {
					hasDesc = true
					break
				}
			}
			if !hasDesc {
				minimal = append(minimal, u)
			}
		}
		// A_k = (∪ Path(u, w)) \ A: walk each path toward w, claiming
		// unclaimed nodes (excluding w itself: packets destined w are
		// delivered on arrival, never forwarded out of w).
		for _, u := range minimal {
			for node := u; node != w && node != network.None; node = p.nw.Next(node) {
				if activeFor[node] == network.None {
					activeFor[node] = w
				}
			}
		}
	}

	// Cascaded rates on capacitated links, roots-first so parents resolve
	// before children; full B only into the pseudo-buffer's destination.
	var out []sim.Forward
	sent := make([]int, n)
	for idx := len(p.topo) - 1; idx >= 0; idx-- {
		node := p.topo[idx]
		w := activeFor[node]
		if w == network.None {
			continue
		}
		limit := v.Bandwidth(node)
		if up := p.nw.Next(node); up != w {
			limit = min(limit, max(1, sent[up]))
		}
		n0 := len(out)
		out = appendLIFOTop(out, node, byDest[w][node], limit)
		sent[node] = len(out) - n0
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
