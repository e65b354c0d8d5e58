package core

import (
	"fmt"
	"sort"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// refPPTS, refTreePTS and refTreePPTS are the original, direct
// transcriptions of Algorithms 2 and 6 and of the tree PTS: every round
// regroups the packets by destination into fresh maps and slices. They are
// kept as the oracles for the indexed protocols (differential tests only).
type refPPTS struct {
	drainWhenIdle bool
	nw            *network.Network
}

var _ sim.Protocol = (*refPPTS)(nil)

func (p *refPPTS) Name() string { return "refPPTS" }

func (p *refPPTS) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	if !nw.IsPath() {
		return fmt.Errorf("core: PPTS requires a path topology (use TreePPTS for trees)")
	}
	p.nw = nw
	return nil
}

// pptsState is the per-round view: for each destination w present in the
// configuration, the per-node pseudo-buffer contents.
type pptsState struct {
	n int
	// byDest[w][i] = packets at node i destined for w, arrival order.
	byDest map[network.NodeID][][]packet.Packet
	dests  []network.NodeID // sorted ascending
	bw     []int            // bw[i] = link bandwidth of node i
}

func newPPTSState(v sim.View) *pptsState {
	n := v.Net().Len()
	st := &pptsState{n: n, byDest: make(map[network.NodeID][][]packet.Packet), bw: make([]int, n)}
	for i := 0; i < n; i++ {
		st.bw[i] = v.Bandwidth(network.NodeID(i))
		for _, pk := range v.Packets(network.NodeID(i)) {
			per := st.byDest[pk.Dst]
			if per == nil {
				per = make([][]packet.Packet, n)
				st.byDest[pk.Dst] = per
				st.dests = append(st.dests, pk.Dst)
			}
			per[i] = append(per[i], pk)
		}
	}
	sort.Slice(st.dests, func(a, b int) bool { return st.dests[a] < st.dests[b] })
	return st
}

// pseudo returns the k-pseudo-buffer of node i for destination w.
func (st *pptsState) pseudo(w network.NodeID, i int) []packet.Packet {
	per := st.byDest[w]
	if per == nil {
		return nil
	}
	return per[i]
}

func (p *refPPTS) Decide(v sim.View) ([]sim.Forward, error) {
	st := newPPTSState(v)
	out := p.scan(st, true)
	if out == nil && p.drainWhenIdle {
		out = p.scan(st, false)
	}
	return out, nil
}

// scan performs the right-to-left destination sweep. With bad=true it is
// Algorithm 2 verbatim: intervals begin at the left-most bad pseudo-buffer.
// With bad=false (drain mode) intervals begin at the left-most non-empty
// pseudo-buffer and are additionally truncated so that the packets leaving
// the interval's right end land in an empty pseudo-buffer (or their
// destination), preserving zero badness.
//
// On capacitated links each activated pseudo-buffer forwards under the
// cascaded-rate discipline: node i sends min(B(i), max(1, sent(i+1)))
// packets, full B(i) only into the destination itself. The node order of
// the sweep is right-to-left overall (higher destinations first, intervals
// right-to-left), so every receiver's rate is known before its sender's.
// At B = 1 every limit degenerates to one packet — Algorithm 2 exactly.
func (p *refPPTS) scan(st *pptsState, bad bool) []sim.Forward {
	frontier := st.n // sentinel "w_d"
	sent := make([]int, st.n+1)
	var out []sim.Forward
	for kk := len(st.dests) - 1; kk >= 0; kk-- {
		w := st.dests[kk]
		// Left-most qualifying k-pseudo-buffer strictly left of the frontier.
		ik := -1
		limit := int(w)
		if frontier < limit {
			limit = frontier
		}
		for i := 0; i < limit; i++ {
			ps := st.pseudo(w, i)
			if (bad && len(ps) >= 2) || (!bad && len(ps) >= 1) {
				ik = i
				break
			}
		}
		if ik < 0 {
			continue
		}
		hi := frontier - 1
		if int(w)-1 < hi {
			hi = int(w) - 1
		}
		if !bad {
			// Truncate so the interval's emission lands safely: find the
			// largest hi' ∈ [ik, hi] with (hi'+1 == w) or L_k(hi'+1) empty.
			for hi >= ik && hi+1 != int(w) && len(st.pseudo(w, hi+1)) > 0 {
				hi--
			}
			if hi < ik {
				continue
			}
		}
		for i := hi; i >= ik; i-- {
			// The intervals are disjoint (Lemma B.1), so node i forwards
			// from this one pseudo-buffer only.
			limit := st.bw[i]
			if i+1 != int(w) {
				limit = min(limit, max(1, sent[i+1]))
				if !bad && i == hi {
					// Drain mode truncated the interval so its emission
					// lands in an empty pseudo-buffer; more than one packet
					// would create badness there.
					limit = 1
				}
			}
			n0 := len(out)
			out = appendLIFOTop(out, network.NodeID(i), st.pseudo(w, i), limit)
			sent[i] = len(out) - n0
		}
		frontier = ik
	}
	return out
}

type refTreePTS struct {
	drainWhenIdle bool
	nw            *network.Network
	roots         map[network.NodeID]bool
	topo          []network.NodeID
}

var _ sim.Protocol = (*refTreePTS)(nil)

func (p *refTreePTS) Name() string { return "refTreePTS" }

func (p *refTreePTS) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	p.nw = nw
	p.roots = make(map[network.NodeID]bool, len(nw.Sinks()))
	for _, s := range nw.Sinks() {
		p.roots[s] = true
	}
	p.topo = nw.TopoOrder()
	return nil
}

func (p *refTreePTS) Decide(v sim.View) ([]sim.Forward, error) {
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
func (p *refTreePTS) sweep(v sim.View, threshold int) map[network.NodeID]bool {
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

type refTreePPTS struct {
	nw   *network.Network
	topo []network.NodeID
}

var _ sim.Protocol = (*refTreePPTS)(nil)

func (p *refTreePPTS) Name() string { return "refTreePPTS" }

func (p *refTreePPTS) Attach(nw *network.Network, _ adversary.Bound, _ []network.NodeID) error {
	p.nw = nw
	p.topo = nw.TopoOrder()
	return nil
}

func (p *refTreePPTS) Decide(v sim.View) ([]sim.Forward, error) {
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
