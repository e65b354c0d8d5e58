package adversary

import (
	"fmt"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// ViolationError reports where a pattern exceeded its declared bound.
type ViolationError struct {
	Round  int
	Buffer network.NodeID
	Excess rat.Rat
	Bound  Bound
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("adversary: bound %v violated at round %d, buffer %d: excess %v > σ",
		e.Bound, e.Round, e.Buffer, e.Excess)
}

// Verifier checks a stream of injections online against a declared bound:
// route validity for every injection and ξ_t(v) ≤ σ for every buffer after
// every round (equivalent to Definition 2.1 by Lemma 2.3).
type Verifier struct {
	nw     *network.Network
	bound  Bound
	excess *Excess
	round  int
}

// NewVerifier returns a verifier with zeroed history. The bound is
// admitted against nw's bottleneck bandwidth: ρ may range up to B_min.
func NewVerifier(nw *network.Network, bound Bound) (*Verifier, error) {
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	return &Verifier{nw: nw, bound: bound, excess: NewExcess(nw, bound.Rho)}, nil
}

// Check absorbs one round of injections, returning an error if any
// injection has an invalid route or the (ρ,σ) bound is violated. Rounds
// must be checked in order starting at 0.
func (v *Verifier) Check(round int, injections []packet.Injection) error {
	if round != v.round {
		return fmt.Errorf("adversary: verifier expected round %d, got %d", v.round, round)
	}
	v.round++
	for _, in := range injections {
		if err := in.Validate(v.nw); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	v.excess.Absorb(injections)
	if x, node := v.excess.Max(); rat.FromInt(int64(v.bound.Sigma)).Less(x) {
		return &ViolationError{Round: round, Buffer: node, Excess: x, Bound: v.bound}
	}
	return nil
}

// VerifyPrefix runs an adversary for the given number of rounds through a
// fresh verifier and returns the first violation, if any. The adversary is
// consumed (stateful adversaries cannot be reused afterwards).
func VerifyPrefix(nw *network.Network, adv Adversary, rounds int) error {
	ver, err := NewVerifier(nw, adv.Bound())
	if err != nil {
		return err
	}
	for t := 0; t < rounds; t++ {
		if err := ver.Check(t, adv.Inject(t)); err != nil {
			return err
		}
	}
	return nil
}

// NaiveBoundHolds checks Definition 2.1 directly: for every buffer v and
// every interval [s,t] of the recorded history, N_{[s,t]}(v) ≤ ρ(t−s+1)+σ.
// It is O(rounds² · buffers) and exists to cross-validate the excess
// recursion in tests.
func NaiveBoundHolds(nw *network.Network, bound Bound, history [][]packet.Injection) bool {
	n := nw.Len()
	counts := make([][]int, len(history))
	for t, injs := range history {
		counts[t] = make([]int, n)
		for _, in := range injs {
			for v := range counts[t] {
				if Crosses(nw, in, network.NodeID(v)) {
					counts[t][v]++
				}
			}
		}
	}
	sigma := rat.FromInt(int64(bound.Sigma))
	for v := 0; v < n; v++ {
		for s := 0; s < len(history); s++ {
			sum := 0
			for t := s; t < len(history); t++ {
				sum += counts[t][v]
				budget := bound.Rho.MulInt(int64(t - s + 1)).Add(sigma)
				if budget.Less(rat.FromInt(int64(sum))) {
					return false
				}
			}
		}
	}
	return true
}

// NaiveExcess computes ξ_t(v) by Definition 2.2 directly (max over all
// interval suffixes), for cross-validation of the recursion.
func NaiveExcess(nw *network.Network, rho rat.Rat, history [][]packet.Injection, t int, v network.NodeID) rat.Rat {
	best := rat.Zero
	sum := 0
	for s := t; s >= 0; s-- {
		for _, in := range history[s] {
			if Crosses(nw, in, v) {
				sum++
			}
		}
		val := rat.FromInt(int64(sum)).Sub(rho.MulInt(int64(t - s + 1)))
		best = best.Max(val)
	}
	return best
}
