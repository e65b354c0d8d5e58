package core

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// HPTS is Algorithm 3, "Hierarchical Peak-to-Sink" (§4), for a path of
// n = m^ℓ nodes and rates ρ·ℓ ≤ 1. The line is partitioned hierarchically
// (Hierarchy); each packet traverses segments of strictly decreasing level,
// and each buffer is split into ℓ·m pseudo-buffers indexed by (level,
// intermediate destination). The algorithm time-division multiplexes: at
// round t only level λ = t mod ℓ intervals run a PPTS-style activation
// (FormPaths, Algorithm 4), plus anticipatory activations at lower levels
// for packets about to switch level into an occupied pseudo-buffer
// (ActivatePreBad, Algorithm 5). Packets are accepted only at phase
// boundaries, i.e. the protocol plays against the ℓ-reduction of the
// adversary (Definition 2.4).
//
// Theorem 4.1: the maximum buffer occupancy is at most ℓ·n^(1/ℓ) + σ + 1.
//
// The theorem is stated for unit links. On capacitated links HPTS keeps
// its activation structure and lets each activated pseudo-buffer forward
// up to B(v) packets; B = 1 recovers the analyzed algorithm exactly, while
// B > 1 is a best-effort generalization (the phase-badness invariant of
// Lemma 4.8 is only proven at B = 1).
//
// HPTS keeps an index of its bad pseudo-buffers (hptsView) current from
// the round's delta, View.Accepted and View.Moved: each accepted packet
// and each move re-reads the one or two buffers it changed. So Decide
// costs O(ℓ·n) plus those reads, however many packets stand buffered,
// and allocates nothing once its scratch has grown. Like every protocol
// that keeps state between rounds, it relies on Decide seeing every round
// of the run, in order, from Attach on.
type HPTS struct {
	ell          int
	ablatePreBad bool
	h            *Hierarchy
	// scratch, sized at Attach and reused across rounds:
	idx      hptsView
	actLevel []int // per node: activated level, −1 = inactive
	actW     []int // per node: intermediate destination of the activated pseudo-buffer
	sent     []int // per node, plus a zero sentinel: packets forwarded this round
	out      []sim.Forward
}

var _ sim.Protocol = (*HPTS)(nil)
var _ sim.PhasedAcceptor = (*HPTS)(nil)

// HPTSOption configures HPTS.
type HPTSOption func(*HPTS)

// HPTSAblatePreBad disables the ActivatePreBad step (Algorithm 5). This is
// an ablation knob for experiments: without it, packets completing a
// segment can stack onto occupied lower-level pseudo-buffers and the phase
// badness invariant of Lemma 4.8 no longer holds.
func HPTSAblatePreBad() HPTSOption {
	return func(p *HPTS) { p.ablatePreBad = true }
}

// NewHPTS returns an HPTS instance with ℓ hierarchy levels. The attached
// network must be a path of exactly m^ℓ nodes for some integer m ≥ 2.
// With ℓ = 1, HPTS degenerates to PPTS over all potential destinations.
func NewHPTS(ell int, opts ...HPTSOption) *HPTS {
	p := &HPTS{ell: ell}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Protocol.
func (p *HPTS) Name() string {
	if p.ablatePreBad {
		return fmt.Sprintf("HPTS(ℓ=%d,no-prebad)", p.ell)
	}
	return fmt.Sprintf("HPTS(ℓ=%d)", p.ell)
}

// PhaseLength implements sim.PhasedAcceptor: injections are accepted every
// ℓ rounds (the ℓ-reduction).
func (p *HPTS) PhaseLength() int { return p.ell }

// Hierarchy returns the attached hierarchy (nil before Attach).
func (p *HPTS) Hierarchy() *Hierarchy { return p.h }

// Attach implements sim.Protocol.
func (p *HPTS) Attach(nw *network.Network, bound adversary.Bound, _ []network.NodeID) error {
	h, err := HierarchyFor(nw.Len(), p.ell)
	if err != nil {
		return err
	}
	if err := h.Validate(nw); err != nil {
		return err
	}
	n := nw.Len()
	p.h = h
	p.idx = hptsView{h: h, firstBad: make([]int, n), bad: make([]int32, n), free: -1}
	for i := range p.idx.bad {
		p.idx.bad[i] = -1
	}
	p.actLevel = make([]int, n)
	p.actW = make([]int, n)
	p.sent = make([]int, n+1)
	// ρ·ℓ ≤ 1 is the premise of Theorem 4.1; running outside it is allowed
	// (the bound simply may not hold), so no error here.
	_ = bound
	return nil
}

// hptsView is HPTS's index of its pseudo-buffers over the engine view.
// The pseudo-buffer L_{j,k}(i) is named by its intermediate destination
// w_k = lo + k·m^j, where lo is the left end of i's level-j interval: it
// holds the packets at i headed for [w_k, w_k + m^j), and exists only for
// i < w_k. Its class is g = ⌊w_k/m^j⌋ = r·m + k for i's level-j interval
// r. The index lists, per node, the (level, class) of each of its bad
// (≥ 2 packets) pseudo-buffers, threaded through one arena of records
// with a free list: O(n) words plus one record per bad pseudo-buffer, of
// which there are at most P/2 for P buffered packets, at any ℓ. track
// keeps it current from the round's delta, and build reads from it, for
// each level-λ class, the leftmost bad node, which is all FormPaths asks.
// The remaining queries, O(ℓ·n) per round from ActivatePreBad and the
// forwarding step, each filter one node's packets by destination range.
type hptsView struct {
	v sim.View
	h *Hierarchy
	// firstBad[g]: the leftmost node whose level-λ pseudo-buffer of class
	// g is bad, −1 if none.
	firstBad []int
	// bad[i]: the first record of node i's list, −1 if it has none.
	bad []int32
	// recs is the arena; free heads its free list, −1 if empty.
	recs []badRec
	free int32
}

// badRec records one bad pseudo-buffer: its level and class, and the
// next record of its node's list (or of the free list), −1 at the end.
type badRec struct{ level, class, next int32 }

// track brings the index up to date with round v's delta: the buffers
// changed by exactly the packets accepted this round and the moves of the
// previous forwarding step, so only the pseudo-buffers those packets left
// or entered can have turned bad or good.
func (x *hptsView) track(v sim.View) {
	x.v = v
	for _, pk := range v.Accepted() {
		x.note(int(pk.Src), int(pk.Dst))
	}
	for _, m := range v.Moved() {
		x.note(int(m.From), int(m.Pkt.Dst))
		if !m.Delivered && !m.Dropped {
			x.note(int(m.To), int(m.Pkt.Dst))
		}
	}
}

// note re-derives from node i's buffer whether its pseudo-buffer that
// holds packets headed for w (i < w) is bad, and adds or removes its
// record to match. The answer depends only on the buffer, so notes may
// come in any order and repeat.
func (x *hptsView) note(i, w int) {
	j := x.h.Level(i, w)
	step := x.h.Pow(j)
	g := w / step
	lo := g * step
	count := 0
	for _, pk := range x.v.Packets(network.NodeID(i)) {
		if d := int(pk.Dst); d >= lo && d < lo+step {
			if count++; count == 2 {
				break
			}
		}
	}
	prev, r := int32(-1), x.bad[i]
	for r >= 0 && (x.recs[r].level != int32(j) || x.recs[r].class != int32(g)) {
		prev, r = r, x.recs[r].next
	}
	switch {
	case count == 2 && r < 0:
		if r = x.free; r >= 0 {
			x.free = x.recs[r].next
		} else {
			r = int32(len(x.recs))
			x.recs = append(x.recs, badRec{})
		}
		x.recs[r] = badRec{level: int32(j), class: int32(g), next: x.bad[i]}
		x.bad[i] = r
	case count < 2 && r >= 0:
		if prev < 0 {
			x.bad[i] = x.recs[r].next
		} else {
			x.recs[prev].next = x.recs[r].next
		}
		x.recs[r].next, x.free = x.free, r
	}
}

// build indexes the bad level-λ pseudo-buffers for this round's FormPaths.
func (x *hptsView) build(lambda int) {
	firstBad := x.firstBad[:x.h.N()/x.h.Pow(lambda)]
	for g := range firstBad {
		firstBad[g] = -1
	}
	// Nodes are walked left to right, so a class's first sight is its
	// leftmost bad node.
	for _, node := range x.v.Occupied() {
		for r := x.bad[node]; r >= 0; r = x.recs[r].next {
			if rec := &x.recs[r]; int(rec.level) == lambda && firstBad[rec.class] < 0 {
				firstBad[rec.class] = int(node)
			}
		}
	}
}

// top returns the most recently arrived packet of node i's level-j
// pseudo-buffer with intermediate destination wk > i, if it is non-empty.
func (x *hptsView) top(i, j, wk int) (packet.Packet, bool) {
	pkts := x.v.Packets(network.NodeID(i))
	end := wk + x.h.Pow(j)
	for q := len(pkts) - 1; q >= 0; q-- {
		if w := int(pkts[q].Dst); w >= wk && w < end {
			return pkts[q], true
		}
	}
	return packet.Packet{}, false
}

// appendTop is appendLIFOTop over node i's level-j pseudo-buffer with
// intermediate destination wk > i: it forwards its b most recent packets.
func (x *hptsView) appendTop(out []sim.Forward, i, j, wk, b int) []sim.Forward {
	pkts := x.v.Packets(network.NodeID(i))
	end := wk + x.h.Pow(j)
	for q := len(pkts) - 1; q >= 0 && b > 0; q-- {
		if w := int(pkts[q].Dst); w >= wk && w < end {
			out = append(out, sim.Forward{From: network.NodeID(i), Pkt: pkts[q].ID})
			b--
		}
	}
	return out
}

// Decide implements sim.Protocol (Algorithm 3's forwarding step).
//
// Within a phase the levels run in decreasing order: the first round after
// acceptance serves level ℓ−1 and the last round serves level 0. Lemma 4.8's
// proof depends on this ("levels are activated in decreasing order over the
// course of a phase"): when forwarding replaces a bad packet at level λ with
// a bad packet at some level j < λ, the level-j round still lies ahead in
// the same phase and clears it, which is what makes the phase badness
// strictly decrease.
func (p *HPTS) Decide(v sim.View) ([]sim.Forward, error) {
	lambda := p.ell - 1 - v.Round()%p.ell
	for i := range p.actLevel {
		p.actLevel[i] = -1
	}
	p.idx.track(v)
	p.idx.build(lambda)
	// Lines 6–8: FormPaths on every level-λ interval.
	for r := 0; r < p.h.IntervalCount(lambda); r++ {
		p.formPaths(lambda, r)
	}
	// Lines 9–11: anticipatory activation at lower levels.
	if !p.ablatePreBad {
		for j := lambda - 1; j >= 0; j-- {
			p.activatePreBad(j)
		}
	}
	// Line 12: every non-empty activated pseudo-buffer forwards. On
	// capacitated links rates follow the cascaded-rate discipline, computed
	// right to left: node i sends min(B(i), max(1, sent(i+1))), and the full
	// B(i) only when i+1 is the pseudo-buffer's own intermediate destination
	// (where its packets leave this pseudo-buffer system). B = 1 is the
	// paper's one-packet rule exactly; B > 1 is best-effort (see type doc).
	out := p.out[:0]
	for i := p.h.N() - 1; i >= 0; i-- {
		p.sent[i] = 0
		j, wk := p.actLevel[i], p.actW[i]
		if j < 0 {
			continue
		}
		limit := v.Bandwidth(network.NodeID(i))
		if i+1 != wk {
			limit = min(limit, max(1, p.sent[i+1]))
		}
		n0 := len(out)
		out = p.idx.appendTop(out, i, j, wk, limit)
		p.sent[i] = len(out) - n0
	}
	p.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// formPaths is Algorithm 4 on interval I_{λ,r}: a PPTS sweep over the
// interval's m intermediate destinations.
func (p *HPTS) formPaths(lambda, r int) {
	m, step := p.h.M(), p.h.Pow(lambda)
	lo, _ := p.h.Interval(lambda, r)
	frontier := lo + (m-1)*step // Algorithm 4 line 2: i′ ← w_{m−1}
	for k := m - 1; k >= 0; k-- {
		wk := lo + k*step
		// Left-most bad (λ,k)-pseudo-buffer strictly left of the frontier:
		// the interval's left-most one, unless that lies at or beyond it.
		ik := p.idx.firstBad[r*m+k]
		if ik < 0 || ik >= frontier {
			continue
		}
		for i := ik; i < min(frontier, wk); i++ {
			p.actLevel[i], p.actW[i] = lambda, wk
		}
		frontier = ik
	}
}

// activatePreBad is Algorithm 5 at level j: for each level-j interval whose
// left endpoint a is about to receive a packet P that completes its segment
// at a, re-enters at level j, and would land on an occupied pseudo-buffer
// (Definition 4.6), activate the chain of (j, k)-pseudo-buffers from a up
// to P's level-j intermediate destination or the first active node.
func (p *HPTS) activatePreBad(j int) {
	step := p.h.Pow(j)
	for r := 0; r < p.h.IntervalCount(j); r++ {
		a, _ := p.h.Interval(j, r)
		// a needs an upstream neighbor, must be inactive itself, and the
		// unique active pseudo-buffer of node a−1 must have a as its
		// intermediate destination: then its LIFO top P, sent this round,
		// completes its segment exactly at a.
		if a == 0 || p.actLevel[a] >= 0 || p.actLevel[a-1] < 0 || p.actW[a-1] != a {
			continue
		}
		pkt, ok := p.idx.top(a-1, p.actLevel[a-1], a)
		if !ok {
			continue
		}
		w := int(pkt.Dst)
		if w == a {
			continue // delivered on arrival, cannot become bad
		}
		// P's new level at a must be this j, and its new pseudo-buffer
		// occupied (pre-bad).
		if p.h.Level(a, w) != j {
			continue
		}
		wk := w / step * step
		if _, ok := p.idx.top(a, j, wk); !ok {
			continue
		}
		// Chain [a, w_k − 1]: the maximal inactive prefix, where w_k is P's
		// level-j intermediate destination. The chain must not claim w_k
		// itself: its (j,k)-pseudo-buffer is empty (packets switch level on
		// arrival), and marking it active would block the cascaded pre-bad
		// activation of the next interval (the event-(a) chain of Claim 2).
		for i := a; i < wk && p.actLevel[i] < 0; i++ {
			p.actLevel[i], p.actW[i] = j, wk
		}
	}
}

// HPTSSpaceBound returns the Theorem 4.1 bound ℓ·n^(1/ℓ) + σ + 1 = ℓ·m+σ+1.
func HPTSSpaceBound(h *Hierarchy, sigma int) int {
	return h.Levels()*h.M() + sigma + 1
}
