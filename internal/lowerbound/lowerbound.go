// Package lowerbound implements the Section 5 construction: a (ρ,1)-bounded
// injection pattern on a path of n = (ℓ+1)·m^ℓ buffers that forces *every*
// forwarding protocol to store Ω(((ℓ+1)ρ−1)/2ℓ · n^(1/ℓ)) packets in some
// buffer (Theorem 5.1).
//
// The pattern runs m^ℓ phases of m rounds each. During the phase with
// base-m index t_ℓ···t_1 it injects, smoothly at rate ρ per route:
//
//   - ρm packets into buffer v_1(t_ℓ···t_1) destined for node n,
//   - ρm packets into buffer v_k destined for v_{k−1}, for k = 2…ℓ,
//   - ρm packets into buffer 0 destined for v_ℓ,
//
// where v_i(t_ℓ···t_1) = Σ_{k=i}^{ℓ} ((k+1)m^k − (t_k+1)k·m^(k−1)). The
// routes tile the line edge-disjointly, and the right-most site
// F(t) = v_1 drifts left as phases advance, so packets are overtaken by F
// before they can be delivered ("go stale") at a bounded rate only
// (Lemmas 5.2–5.4) — forcing fresh packets to pile up.
//
// The package also provides a StalenessTracker that replays the paper's
// fresh/α-stale/β-stale accounting during a simulation, turning Lemmas 5.2,
// 5.3 and 5.4 into executable checks.
package lowerbound

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// Adversary is the Theorem 5.1 injection pattern.
type Adversary struct {
	m, ell  int
	rho     rat.Rat
	perType int // ρ·m packets of each type per phase
	n       int // buffer count (ℓ+1)·m^ℓ; the path has n+1 nodes
	rounds  int // m^(ℓ+1)
	pow     []int

	// emission state: per type 1..ℓ+1, packets emitted in the current
	// phase; reset at phase starts.
	phaseOf int
	emitted []int
	out     []packet.Injection // Inject's result, reused across rounds
}

var _ adversary.Adversary = (*Adversary)(nil)

// New validates parameters and returns the pattern. Requirements: ℓ ≥ 2,
// m ≥ 2, ρ ≤ 1, ρ·m ∈ ℕ (so each phase injects a whole number of packets
// per route), and ρ > 1/(ℓ+1) for the bound to be non-trivial (smaller ρ is
// allowed but the predicted bound degenerates to 0).
func New(m, ell int, rho rat.Rat) (*Adversary, error) {
	if ell < 2 {
		return nil, fmt.Errorf("lowerbound: need ℓ ≥ 2, got %d", ell)
	}
	if m < 2 {
		return nil, fmt.Errorf("lowerbound: need m ≥ 2, got %d", m)
	}
	if rho.Sign() <= 0 || rat.One.Less(rho) {
		return nil, fmt.Errorf("lowerbound: need 0 < ρ ≤ 1, got %v", rho)
	}
	perTypeRat := rho.MulInt(int64(m))
	if !perTypeRat.IsInt() {
		return nil, fmt.Errorf("lowerbound: ρ·m = %v must be an integer", perTypeRat)
	}
	pow := make([]int, ell+2)
	pow[0] = 1
	for j := 1; j <= ell+1; j++ {
		if pow[j-1] > (1<<28)/m {
			return nil, fmt.Errorf("lowerbound: m=%d ℓ=%d overflows", m, ell)
		}
		pow[j] = pow[j-1] * m
	}
	n := (ell + 1) * pow[ell]
	return &Adversary{
		m: m, ell: ell, rho: rho,
		perType: int(perTypeRat.Num()),
		n:       n,
		rounds:  pow[ell+1],
		pow:     pow,
		phaseOf: -1,
		emitted: make([]int, ell+2),
	}, nil
}

// Bound implements adversary.Adversary: the pattern is (ρ,1)-bounded.
func (a *Adversary) Bound() adversary.Bound {
	return adversary.Bound{Rho: a.rho, Sigma: 1}
}

// N returns the number of buffers n = (ℓ+1)·m^ℓ (the path has N()+1 nodes,
// so that destination n exists).
func (a *Adversary) N() int { return a.n }

// M returns the per-phase round count m.
func (a *Adversary) M() int { return a.m }

// Ell returns the hierarchy depth ℓ.
func (a *Adversary) Ell() int { return a.ell }

// Rounds returns the total pattern length m^(ℓ+1).
func (a *Adversary) Rounds() int { return a.rounds }

// Network returns the path this pattern plays on: N()+1 nodes.
func (a *Adversary) Network() (*network.Network, error) {
	return network.NewPath(a.n + 1)
}

// phaseDigits decomposes a round into the phase digits t_ℓ…t_1 (the phase
// index in base m).
func (a *Adversary) phase(round int) int { return round / a.m }

// V returns the i-th injection site v_i(t_ℓ···t_1) for the phase containing
// the given round, i ∈ [1, ℓ].
func (a *Adversary) V(i, round int) int {
	phase := a.phase(round)
	sum := 0
	for k := i; k <= a.ell; k++ {
		tk := (phase / a.pow[k-1]) % a.m // digit t_k of the round number
		sum += (k+1)*a.pow[k] - (tk+1)*k*a.pow[k-1]
	}
	return sum
}

// F returns F(t) = v_1(t_ℓ···t_1): the right-most injection site of the
// phase containing round t, the "freshness frontier".
func (a *Adversary) F(round int) int { return a.V(1, round) }

// Route returns the (source, destination) of type-k packets during the
// phase containing the given round; types are 1…ℓ+1.
func (a *Adversary) Route(typ, round int) (src, dst network.NodeID) {
	switch {
	case typ == 1:
		return network.NodeID(a.V(1, round)), network.NodeID(a.n)
	case typ >= 2 && typ <= a.ell:
		return network.NodeID(a.V(typ, round)), network.NodeID(a.V(typ-1, round))
	case typ == a.ell+1:
		return 0, network.NodeID(a.V(a.ell, round))
	default:
		panic(fmt.Sprintf("lowerbound: bad type %d", typ))
	}
}

// Inject implements adversary.Adversary: within each phase, every type
// emits its ρ·m packets smoothly (packet j of a type is due at the round
// where the accumulated budget ρ·(r+1) first reaches j+1, r being the
// in-phase round index). The pattern is empty after Rounds().
func (a *Adversary) Inject(round int) []packet.Injection {
	if round >= a.rounds {
		return nil
	}
	if ph := a.phase(round); ph != a.phaseOf {
		a.phaseOf = ph
		for i := range a.emitted {
			a.emitted[i] = 0
		}
	}
	r := round % a.m // in-phase round index
	budget := int(a.rho.MulInt(int64(r + 1)).Floor())
	if budget > a.perType {
		budget = a.perType
	}
	out := a.out[:0]
	for typ := 1; typ <= a.ell+1; typ++ {
		for a.emitted[typ] < budget {
			src, dst := a.Route(typ, round)
			if src != dst {
				out = append(out, packet.Injection{Src: src, Dst: dst})
			}
			a.emitted[typ]++
		}
	}
	a.out = out
	return out
}

// PredictedBound returns the Theorem 5.1 prediction
// ((ℓ+1)ρ − 1)/(2ℓ) · m: the max-load floor (up to the Ω constant) every
// protocol must hit on this pattern.
func (a *Adversary) PredictedBound() rat.Rat {
	// ((ℓ+1)ρ − 1) / (2ℓ) · m
	num := a.rho.MulInt(int64(a.ell + 1)).Sub(rat.One)
	if num.Sign() < 0 {
		return rat.Zero
	}
	return num.Div(rat.FromInt(int64(2 * a.ell))).MulInt(int64(a.m))
}
