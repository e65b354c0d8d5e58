package adversary

import (
	"math/rand"
	"sort"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Random is a randomized adversary that is (ρ,σ)-bounded *by construction*:
// every round it draws candidate injections (random source, random
// destination from a configured set) and passes them through a shaper that
// admits a candidate only if the excess of every buffer on its route stays
// at most σ. With enough candidates per round the pattern tracks the bound
// closely, which is what makes it a useful stress test for the upper-bound
// theorems.
type Random struct {
	bound Bound
	rng   *rand.Rand
	dests []network.NodeID
	// sources[i] lists the valid injection sites for dests[i].
	sources  [][]network.NodeID
	excess   *Excess
	attempts int
	out      []packet.Injection // Inject's result, reused across rounds
}

var _ Adversary = (*Random)(nil)
var _ DestinationHinter = (*Random)(nil)

// defaultAttempts sizes the per-round candidate pool. At ρ ≤ 1 it is the
// historical 4σ+4 (kept bit-for-bit so fixed seeds replay identically);
// super-unit rates draw proportionally more candidates, since a round must
// be able to admit ~ρ packets just to track the rate term.
func defaultAttempts(b Bound) int {
	n := 4*b.Sigma + 4
	if extra := int(b.Rho.Ceil()) - 1; extra > 0 {
		n += 4 * extra
	}
	return n
}

// RandomOption configures a Random adversary.
type RandomOption func(*Random)

// WithAttempts sets how many candidate injections are drawn per round
// (default: 4·σ + 4, plus 4·(⌈ρ⌉−1) at super-unit rates so the generator
// can keep pace with capacitated links). More attempts saturate the bound
// more tightly at the cost of simulation time.
func WithAttempts(n int) RandomOption {
	return func(r *Random) {
		if n > 0 {
			r.attempts = n
		}
	}
}

// NewRandom returns a shaped random adversary injecting toward the given
// destinations (all sinks if none are provided). The generator is
// deterministic given the seed.
func NewRandom(nw *network.Network, bound Bound, dests []network.NodeID, seed int64, opts ...RandomOption) (*Random, error) {
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	if len(dests) == 0 {
		dests = nw.Sinks()
	}
	dests = append([]network.NodeID(nil), dests...)
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	sources := make([][]network.NodeID, len(dests))
	for i, d := range dests {
		for v := 0; v < nw.Len(); v++ {
			id := network.NodeID(v)
			if id != d && nw.Reaches(id, d) {
				sources[i] = append(sources[i], id)
			}
		}
	}
	excess, err := newShaper(nw, bound)
	if err != nil {
		return nil, err
	}
	r := &Random{
		bound:    bound,
		rng:      rand.New(rand.NewSource(seed)),
		dests:    dests,
		sources:  sources,
		excess:   excess,
		attempts: defaultAttempts(bound),
	}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Bound implements Adversary.
func (r *Random) Bound() Bound { return r.bound }

// Destinations implements DestinationHinter.
func (r *Random) Destinations() []network.NodeID {
	return append([]network.NodeID(nil), r.dests...)
}

// Inject implements Adversary.
func (r *Random) Inject(round int) []packet.Injection {
	_ = round // stateful: rounds are consumed in order by contract
	out := r.out[:0]
	for a := 0; a < r.attempts; a++ {
		di := r.rng.Intn(len(r.dests))
		if len(r.sources[di]) == 0 {
			continue
		}
		src := r.sources[di][r.rng.Intn(len(r.sources[di]))]
		if r.excess.admit(src, r.dests[di]) {
			out = append(out, packet.Injection{Src: src, Dst: r.dests[di]})
		}
	}
	r.excess.endRound()
	r.out = out
	return out
}

// Stream is a deterministic constant-rate adversary: it injects one packet
// src→dst whenever the accumulated rate budget ⌊ρ·(t+1)⌋ increases, i.e. a
// perfectly smooth rate-ρ flow along a single route. It is (ρ,1)-bounded
// (the +1 absorbs the rounding) and (ρ,0)-bounded when ρ = 1.
type Stream struct {
	bound Bound
	// one is the single injection src→dst that every due round returns.
	one []packet.Injection
	// emitted counts packets so far; the next is due when budget ≥ emitted+1.
	emitted int64
}

var _ Adversary = (*Stream)(nil)
var _ DestinationHinter = (*Stream)(nil)

// NewStream returns a smooth rate-ρ stream src→dst.
func NewStream(bound Bound, src, dst network.NodeID) *Stream {
	return &Stream{bound: bound, one: []packet.Injection{{Src: src, Dst: dst}}}
}

// Bound implements Adversary.
func (s *Stream) Bound() Bound { return s.bound }

// Destinations implements DestinationHinter.
func (s *Stream) Destinations() []network.NodeID { return []network.NodeID{s.one[0].Dst} }

// Inject implements Adversary.
func (s *Stream) Inject(round int) []packet.Injection {
	budget := s.bound.Rho.MulInt(int64(round + 1)).Floor()
	if budget >= s.emitted+1 {
		s.emitted++
		return s.one
	}
	return nil
}

// RoundRobin injects a smooth aggregate rate-ρ flow from a single source,
// cycling destinations in order. Used to spread load over d destinations
// while remaining (ρ,1)-bounded at every buffer (all routes share the
// prefix from src).
type RoundRobin struct {
	bound   Bound
	src     network.NodeID
	dests   []network.NodeID
	emitted int64
	out     []packet.Injection // Inject's result, reused across rounds
}

var _ Adversary = (*RoundRobin)(nil)
var _ DestinationHinter = (*RoundRobin)(nil)

// NewRoundRobin returns a round-robin multi-destination stream.
func NewRoundRobin(bound Bound, src network.NodeID, dests []network.NodeID) *RoundRobin {
	return &RoundRobin{bound: bound, src: src, dests: append([]network.NodeID(nil), dests...)}
}

// Bound implements Adversary.
func (rr *RoundRobin) Bound() Bound { return rr.bound }

// Destinations implements DestinationHinter.
func (rr *RoundRobin) Destinations() []network.NodeID {
	return append([]network.NodeID(nil), rr.dests...)
}

// Inject implements Adversary.
func (rr *RoundRobin) Inject(round int) []packet.Injection {
	budget := rr.bound.Rho.MulInt(int64(round + 1)).Floor()
	out := rr.out[:0]
	for budget >= rr.emitted+1 {
		d := rr.dests[int(rr.emitted)%len(rr.dests)]
		if d != rr.src {
			out = append(out, packet.Injection{Src: rr.src, Dst: d})
		}
		rr.emitted++
	}
	rr.out = out
	return out
}
