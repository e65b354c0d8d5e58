// Package adversary implements the demand side of the AQT model: injection
// patterns, the (ρ,σ)-boundedness discipline of Definition 2.1, the excess
// measure of Definition 2.2, the ℓ-reduction of Definition 2.4, and
// verifiers that check any pattern against its declared bound.
//
// Conventions. Rounds are 0-based. A packet's trajectory is said to contain
// buffer v when v lies on the packet's route and v is not the destination:
// buffer v models the queue for the link out of v, so a packet terminating
// at v never crosses that link. This reading makes the paper's edge-disjoint
// injection sets (e.g. the Section 5 construction, whose consecutive routes
// share an endpoint node) exactly rate-ρ, as intended.
//
// # The shaper
//
// The random and hotspot patterns are (ρ,σ)-bounded by construction: they
// draw candidates and admit one only if every buffer v on its route keeps
// ξ(v) ≤ σ under the token bucket ξ ← max(0, ξ + N − ρ) of Definition 2.2,
// which by Lemma 2.3 is exactly (ρ,σ)-boundedness. With ρ = p/q in lowest
// terms the shaper stores, per buffer, a value s(v) ≥ 0 and one offset off
// ≤ 0 for all buffers, with q·ξ(v) = max(s(v) + off, 0) counting the
// packets admitted so far this round. Ending a round is off −= p, because
// max(max(s + off, 0) − p, 0) = max(s + off − p, 0). Admitting a packet
// adds q at every buffer of its route: s ← max(s, −off) + q.
//
// The values sit at their buffers' positions in the network's heavy-chain
// preorder, where a route is O(log n) position intervals (network.Span)
// and a path route is one. They live in a lazy segment tree whose leaves
// are blocks of 16 positions and whose tags are x ↦ max(x, c) + a. Such
// tags compose, max(max(x, c₁) + a₁, c₂) + a₂ = max(x, c₁, c₂ − a₁) +
// a₁ + a₂, and a range maximum commutes with them, since they are
// monotone. An admission is one range maximum per interval, checked
// against q·σ + p − q, then one range update per interval, each
// O(16 + log n). Before off could overflow int64, it is folded into the
// stored values in O(n).
package adversary

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// Bound is a (ρ, σ) demand bound: over every interval I and buffer v, the
// adversary injects at most ρ·|I| + σ packets whose trajectories contain v.
type Bound struct {
	Rho   rat.Rat
	Sigma int
}

// String renders "(ρ,σ)=(1/2,3)".
func (b Bound) String() string { return fmt.Sprintf("(ρ,σ)=(%v,%d)", b.Rho, b.Sigma) }

// Validate rejects bounds outside 0 ≤ ρ ≤ 1, σ ≥ 0: the admissible demand
// of the paper's unit-capacity model. On capacitated networks use
// ValidateFor, which lets ρ range up to the bottleneck bandwidth.
func (b Bound) Validate() error {
	return b.validateAgainst(1)
}

// ValidateFor rejects bounds that no protocol could serve on nw: ρ must
// satisfy 0 ≤ ρ ≤ B_min where B_min is the bottleneck link bandwidth (a
// sustained per-buffer rate above the slowest link is undeliverable), and
// σ must be non-negative. On unit-capacity networks this is Validate.
func (b Bound) ValidateFor(nw *network.Network) error {
	return b.validateAgainst(nw.BottleneckBandwidth())
}

// ErrRateInadmissible marks bounds whose rate exceeds what the network's
// links can carry; callers distinguish "this demand needs faster links"
// from other construction errors with errors.Is.
var ErrRateInadmissible = errors.New("rate above the bottleneck bandwidth")

// maxRateDen caps the denominator q of a rate ρ = p/q. It is the
// simulation scale of package rat, far above what the paper's
// constructions need, and it keeps Excess's q·ξ well inside int64.
const maxRateDen = 1_000_000

// CheckRate is the rule every rate obeys on any network: 0 ≤ ρ, and ρ's
// denominator in lowest terms is at most 10^6. Bound validation and
// scenario validation both apply it.
func CheckRate(rho rat.Rat) error {
	if rho.Sign() < 0 {
		return fmt.Errorf("adversary: rate ρ=%v negative", rho)
	}
	if rho.Den() > maxRateDen {
		return fmt.Errorf("adversary: rate ρ=%v has a denominator above %d", rho, maxRateDen)
	}
	return nil
}

func (b Bound) validateAgainst(bmin int) error {
	if err := CheckRate(b.Rho); err != nil {
		return err
	}
	if rat.FromInt(int64(bmin)).Less(b.Rho) {
		return fmt.Errorf("adversary: %w: ρ=%v outside [0,%d]", ErrRateInadmissible, b.Rho, bmin)
	}
	if b.Sigma < 0 {
		return fmt.Errorf("adversary: burst σ=%d negative", b.Sigma)
	}
	return nil
}

// Adversary produces the injections of each round. Implementations may be
// stateful; the engine calls Inject exactly once per round, in increasing
// round order, starting at round 0. The returned slice stays valid until
// the adversary's next call: callers must not modify it, and a caller that
// keeps injections across calls copies them.
type Adversary interface {
	// Bound returns the declared (ρ, σ) bound of the pattern.
	Bound() Bound
	// Inject returns the packets injected at the given round.
	Inject(round int) []packet.Injection
}

// sortedDests returns a sorted copy of dests, or of nw's sinks when dests
// is empty, after checking that every destination names a node of nw.
// Repeats stay: a repeated destination is drawn more often.
func sortedDests(nw *network.Network, dests []network.NodeID) ([]network.NodeID, error) {
	if len(dests) == 0 {
		dests = nw.Sinks()
	}
	for _, d := range dests {
		if !nw.Valid(d) {
			return nil, fmt.Errorf("adversary: destination %d out of range (network has %d nodes)", d, nw.Len())
		}
	}
	out := slices.Clone(dests)
	slices.Sort(out)
	return out, nil
}

// DestinationHinter is an optional interface: adversaries that know their
// destination set up front expose it so protocols like PPTS can size their
// pseudo-buffer tables without discovery.
type DestinationHinter interface {
	Destinations() []network.NodeID
}

// Crosses reports whether the trajectory of an injection contains buffer v
// under the package convention (v on route, v ≠ destination).
func Crosses(nw *network.Network, in packet.Injection, v network.NodeID) bool {
	return v != in.Dst && nw.Reaches(in.Src, v) && nw.Reaches(v, in.Dst)
}

// Excess tracks ξ_t(v) for every buffer of a network, exactly, using the
// token-bucket recursion
//
//	ξ_t(v) = max(0, ξ_{t−1}(v) + N_{t}(v) − ρ)
//
// which is equivalent to Definition 2.2 (proved by the accompanying property
// test against the naïve max-over-intervals form). By Lemma 2.3, a pattern
// is (ρ,σ)-bounded iff ξ_t(v) ≤ σ for all t, v.
//
// For ρ = p/q in lowest terms the tracker holds q·ξ(v) as an int64. That
// is as exact as rational arithmetic: a round adds q for every packet
// crossing v and subtracts p, so q·ξ stays an integer. Overflow is checked
// once per round, not per buffer: Absorb panics, as package rat does, when
// the largest q·ξ plus q per injection could pass math.MaxInt64.
type Excess struct {
	nw   *network.Network
	p, q int64
	// acc[v] is q·ξ(v); within Absorb it also counts q for every packet of
	// the round charged to v.
	acc []int64
	// hi is the largest acc[v] at the last round boundary.
	hi int64
}

// NewExcess returns a tracker with ξ ≡ 0 for the given network and rate.
func NewExcess(nw *network.Network, rho rat.Rat) *Excess {
	return &Excess{nw: nw, p: rho.Num(), q: rho.Den(), acc: make([]int64, nw.Len())}
}

// Absorb advances the tracker by one round with the given injections,
// updating ξ for every buffer. It must be called once per round in order.
// An injection whose destination is not reachable crosses no buffer.
func (e *Excess) Absorb(injections []packet.Injection) {
	if k := int64(len(injections)); k > (math.MaxInt64-e.hi)/e.q {
		panic(fmt.Sprintf("adversary: excess overflow: %d injections on q·ξ = %d at ρ = %d/%d", k, e.hi, e.p, e.q))
	}
	for _, in := range injections {
		if !e.nw.Reaches(in.Src, in.Dst) {
			continue
		}
		for u := in.Src; u != in.Dst; u = e.nw.Next(u) {
			e.acc[u] += e.q
		}
	}
	hi := int64(0)
	for v, a := range e.acc {
		a = max(a-e.p, 0)
		e.acc[v] = a
		hi = max(hi, a)
	}
	e.hi = hi
}

// At returns the current ξ(v).
func (e *Excess) At(v network.NodeID) rat.Rat { return rat.New(e.acc[v], e.q) }

// Max returns the largest current excess over all buffers and its location.
func (e *Excess) Max() (rat.Rat, network.NodeID) {
	best, arg := int64(0), network.NodeID(0)
	for v, a := range e.acc {
		if a > best {
			best, arg = a, network.NodeID(v)
		}
	}
	return rat.New(best, e.q), arg
}
