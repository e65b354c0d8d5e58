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
package adversary

import (
	"errors"
	"fmt"
	"math"

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
// the largest q·ξ plus q per injection could pass math.MaxInt64, and a
// shaper checks its σ once, when it is built.
type Excess struct {
	nw   *network.Network
	p, q int64
	// acc[v] is q·ξ_{t−1}(v) plus q for every packet charged to v in the
	// round in progress; between rounds it is q·ξ(v).
	acc []int64
	// hi is the largest acc[v] at the last round boundary.
	hi int64
	// limit is q·σ + p for a shaper: a packet fits at v while
	// acc[v] + q ≤ limit, that is, while ξ_{t−1}(v) + N_t(v) − ρ ≤ σ.
	limit int64
}

// NewExcess returns a tracker with ξ ≡ 0 for the given network and rate.
func NewExcess(nw *network.Network, rho rat.Rat) *Excess {
	return &Excess{nw: nw, p: rho.Num(), q: rho.Den(), acc: make([]int64, nw.Len())}
}

// newShaper returns a tracker that admits packets one at a time so that
// ξ never exceeds b.Sigma. Its acc values stay at most q·σ + p, so the
// single construction-time check below rules out overflow.
func newShaper(nw *network.Network, b Bound) (*Excess, error) {
	e := NewExcess(nw, b.Rho)
	if int64(b.Sigma) > (math.MaxInt64-e.p-e.q)/e.q {
		return nil, fmt.Errorf("adversary: burst σ=%d too large at ρ=%v", b.Sigma, b.Rho)
	}
	e.limit = e.q*int64(b.Sigma) + e.p
	return e, nil
}

// admit is the shaper: it charges one packet src→dst to the round in
// progress if every buffer on the route keeps ξ ≤ σ, and reports whether
// it did. dst must be reachable from src.
func (e *Excess) admit(src, dst network.NodeID) bool {
	for u := src; u != dst; u = e.nw.Next(u) {
		if e.acc[u]+e.q > e.limit {
			return false
		}
	}
	for u := src; u != dst; u = e.nw.Next(u) {
		e.acc[u] += e.q
	}
	return true
}

// endRound closes the round in progress at every buffer:
// q·ξ ← max(0, q·ξ + q·N − p).
func (e *Excess) endRound() {
	hi := int64(0)
	for v, a := range e.acc {
		a = max(a-e.p, 0)
		e.acc[v] = a
		hi = max(hi, a)
	}
	e.hi = hi
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
	e.endRound()
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
