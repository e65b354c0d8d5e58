package adversary

import (
	"math/rand"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Loads exposes the current buffer occupancies to adaptive adversaries
// without coupling this package to the engine.
type Loads func(v network.NodeID) int

// Adaptive is an optional Adversary extension: implementations may observe
// the post-forwarding configuration of the previous round when choosing
// injections. The AQT model quantifies over *all* (ρ,σ)-bounded patterns,
// so adaptivity does not change the theorems — but an adaptive adversary
// explores the pattern space far more aggressively than an oblivious one,
// which makes it a sharper stress test for the upper bounds.
type Adaptive interface {
	Adversary
	// InjectAdaptive returns the round's injections given read access to
	// the current occupancies. Engines call this instead of Inject when
	// available. The result is owned as Inject's is: valid until the
	// adversary's next call, and not to be modified.
	InjectAdaptive(round int, loads Loads) []packet.Injection
}

// HotSpot is an adaptive adversary that aims all admissible traffic at the
// currently fullest buffer: every round it finds the argmax-load buffer and
// proposes injections whose routes cross it, shaped through the exact
// excess tracker so the pattern remains (ρ,σ)-bounded by construction.
type HotSpot struct {
	nw       *network.Network
	bound    Bound
	rng      *rand.Rand
	dests    []network.NodeID
	shaper   *shaper
	attempts int
	// scratch reused across rounds: the result and propose's candidates
	out          []packet.Injection
	beyond, srcs []network.NodeID
}

var _ Adaptive = (*HotSpot)(nil)
var _ DestinationHinter = (*HotSpot)(nil)

// NewHotSpot returns a hot-spot adversary injecting toward the given
// destinations (the sinks if none). Deterministic given the seed. A
// destination that names no node of nw is an error.
func NewHotSpot(nw *network.Network, bound Bound, dests []network.NodeID, seed int64) (*HotSpot, error) {
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	dests, err := sortedDests(nw, dests)
	if err != nil {
		return nil, err
	}
	shaper, err := newShaper(nw, bound)
	if err != nil {
		return nil, err
	}
	return &HotSpot{
		nw:       nw,
		bound:    bound,
		rng:      newRand(seed),
		dests:    dests,
		shaper:   shaper,
		attempts: defaultAttempts(bound),
	}, nil
}

// Release hands the adversary's random source and shaper array back, as
// Random.Release does.
func (h *HotSpot) Release() {
	if h.shaper == nil {
		return
	}
	sources.Put(h.rng, 1)
	h.shaper.release()
	h.rng, h.shaper = nil, nil
}

// Bound implements Adversary.
func (h *HotSpot) Bound() Bound { return h.bound }

// Destinations implements DestinationHinter.
func (h *HotSpot) Destinations() []network.NodeID {
	return append([]network.NodeID(nil), h.dests...)
}

// Inject implements Adversary: without load feedback, behave like an
// unfocused shaped generator (uniform hotspot assumption at node 0).
func (h *HotSpot) Inject(round int) []packet.Injection {
	return h.InjectAdaptive(round, func(network.NodeID) int { return 0 })
}

// InjectAdaptive implements Adaptive.
func (h *HotSpot) InjectAdaptive(round int, loads Loads) []packet.Injection {
	_ = round
	// Find the hottest buffer.
	hot := network.NodeID(0)
	best := -1
	for v := 0; v < h.nw.Len(); v++ {
		if l := loads(network.NodeID(v)); l > best {
			best = l
			hot = network.NodeID(v)
		}
	}
	out := h.out[:0]
	for a := 0; a < h.attempts; a++ {
		in, ok := h.propose(hot)
		if ok && h.shaper.admit(in.Src, in.Dst) {
			out = append(out, in)
		}
	}
	h.shaper.endRound()
	h.out = out
	return out
}

// propose picks a route crossing the hot buffer when possible: a
// destination strictly beyond it and a source at or before it.
func (h *HotSpot) propose(hot network.NodeID) (packet.Injection, bool) {
	// Candidate destinations beyond the hot spot.
	beyond := h.beyond[:0]
	for _, d := range h.dests {
		if d != hot && h.nw.Reaches(hot, d) {
			beyond = append(beyond, d)
		}
	}
	h.beyond = beyond
	if len(beyond) == 0 {
		// Hot spot is past every destination; fall back to any route.
		d := h.dests[h.rng.Intn(len(h.dests))]
		srcs := h.sourcesOf(d, d)
		if len(srcs) == 0 {
			return packet.Injection{}, false
		}
		return packet.Injection{Src: srcs[h.rng.Intn(len(srcs))], Dst: d}, true
	}
	d := beyond[h.rng.Intn(len(beyond))]
	// Sources from which the route crosses the hot buffer: ancestors of hot
	// (inclusive). Prefer injecting directly at the hot spot half the time.
	if h.rng.Intn(2) == 0 {
		return packet.Injection{Src: hot, Dst: d}, true
	}
	srcs := h.sourcesOf(hot, d)
	if len(srcs) == 0 {
		return packet.Injection{Src: hot, Dst: d}, true
	}
	return packet.Injection{Src: srcs[h.rng.Intn(len(srcs))], Dst: d}, true
}

// sourcesOf lists, in ascending order and in h.srcs, the nodes other than
// d from which w is reachable.
func (h *HotSpot) sourcesOf(w, d network.NodeID) []network.NodeID {
	srcs := h.srcs[:0]
	for v := 0; v < h.nw.Len(); v++ {
		id := network.NodeID(v)
		if id != d && h.nw.Reaches(id, w) {
			srcs = append(srcs, id)
		}
	}
	h.srcs = srcs
	return srcs
}
