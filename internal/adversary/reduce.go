package adversary

import (
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Reduced is the ℓ-reduction A_ℓ of an adversary A (Definition 2.4): the
// injections of ℓ consecutive source rounds are presented together, so one
// reduced round stands for ℓ original rounds. By Lemma 2.5, if A is
// (ρ,σ)-bounded then A_ℓ is (ℓ·ρ, σ)-bounded; Bound() reports that derived
// bound.
//
// With this package's 0-based rounds, original round u maps to reduced
// round ⌈u/ℓ⌉: a packet injected exactly on a multiple of ℓ is available at
// that reduced step, and everything injected strictly inside a phase becomes
// available at the phase's end. Reduced round k therefore collects original
// rounds {(k−1)ℓ+1, …, kℓ}, and reduced round 0 collects exactly original
// round 0 — the 0-based image of the paper's 1-based convention.
type Reduced struct {
	inner Adversary
	ell   int
	// nextSrc is the next unconsumed original round.
	nextSrc int
	out     []packet.Injection // Inject's result, reused across rounds
}

var _ Adversary = (*Reduced)(nil)

// NewReduced wraps an adversary in its ℓ-reduction. ℓ must be ≥ 1.
func NewReduced(inner Adversary, ell int) *Reduced {
	if ell < 1 {
		panic("adversary: ℓ-reduction needs ℓ ≥ 1")
	}
	return &Reduced{inner: inner, ell: ell}
}

// Bound implements Adversary, deriving (ℓ·ρ, σ) per Lemma 2.5.
func (r *Reduced) Bound() Bound {
	b := r.inner.Bound()
	return Bound{Rho: b.Rho.MulInt(int64(r.ell)), Sigma: b.Sigma}
}

// Ell returns the reduction factor ℓ.
func (r *Reduced) Ell() int { return r.ell }

// Inject implements Adversary. Reduced round k drains original rounds up to
// and including kℓ.
func (r *Reduced) Inject(round int) []packet.Injection {
	lastSrc := round * r.ell
	out := r.out[:0]
	for ; r.nextSrc <= lastSrc; r.nextSrc++ {
		out = append(out, r.inner.Inject(r.nextSrc)...)
	}
	r.out = out
	return out
}

// Destinations implements DestinationHinter by delegating to the inner
// adversary when it exposes a hint, and returning nil otherwise.
func (r *Reduced) Destinations() []network.NodeID {
	if h, ok := r.inner.(DestinationHinter); ok {
		return h.Destinations()
	}
	return nil
}
