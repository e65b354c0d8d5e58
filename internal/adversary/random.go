package adversary

import (
	"math/rand"

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
	// The sources of dests[i] are the nodes other than it whose route
	// passes through it. On a path they are 0 … dests[i]−1, drawn
	// directly; elsewhere they are sources[at[i]:at[i+1]], ascending.
	path     bool
	sources  []int32
	at       []int32
	shaper   *shaper
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
// deterministic given the seed. A destination that names no node of nw is
// an error.
func NewRandom(nw *network.Network, bound Bound, dests []network.NodeID, seed int64, opts ...RandomOption) (*Random, error) {
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
	r := &Random{
		bound:    bound,
		rng:      rand.New(rand.NewSource(seed)),
		dests:    dests,
		path:     nw.IsPath(),
		shaper:   shaper,
		attempts: defaultAttempts(bound),
	}
	if !r.path {
		r.at = make([]int32, len(dests)+1)
		for i, d := range dests {
			r.at[i+1] = r.at[i] + int32(nw.SubtreeSize(d)-1)
		}
		r.sources = make([]int32, r.at[len(dests)])
		for i, d := range dests {
			k := r.at[i]
			for v := range nw.Len() {
				if id := network.NodeID(v); id != d && nw.Reaches(id, d) {
					r.sources[k] = int32(v)
					k++
				}
			}
		}
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

// Inject implements Adversary. Each candidate draws a destination, then
// one of its sources uniformly; a destination without sources skips the
// candidate.
func (r *Random) Inject(round int) []packet.Injection {
	_ = round // stateful: rounds are consumed in order by contract
	out := r.out[:0]
	for a := 0; a < r.attempts; a++ {
		di := r.rng.Intn(len(r.dests))
		dst := r.dests[di]
		var src network.NodeID
		if r.path {
			if dst == 0 {
				continue
			}
			src = network.NodeID(r.rng.Intn(int(dst)))
		} else {
			srcs := r.sources[r.at[di]:r.at[di+1]]
			if len(srcs) == 0 {
				continue
			}
			src = network.NodeID(srcs[r.rng.Intn(len(srcs))])
		}
		if r.shaper.admit(src, dst) {
			out = append(out, packet.Injection{Src: src, Dst: dst})
		}
	}
	r.shaper.endRound()
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
