// Package harness sits at a deterministic import path, so every RNG
// seed must visibly flow from a parameter or a keyed derivation helper.
package harness

import "math/rand"

// baseline is package state: seeding from it is ad hoc.
var baseline int64

// NewAdversary flows the seed in as a parameter: the caller derived it,
// so construction here is legal.
func NewAdversary(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// deriveSeed is a recognized derivation helper (name matches the
// derive/mix/split/stream family).
func deriveSeed(base int64, cell int) int64 {
	return base ^ int64(cell)*0x9e3779b9
}

// FromDerivation seeds from the keyed derivation: legal.
func FromDerivation(base int64, cell int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(base, cell)))
}

// AdHocLiteral invents a constant seed: flagged.
func AdHocLiteral() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "ad-hoc seed for rand.NewSource"
}

// AdHocGlobal seeds from package state: flagged.
func AdHocGlobal() rand.Source {
	return rand.NewSource(baseline) // want "ad-hoc seed for rand.NewSource"
}

// Reseed reuses a pooled generator for a cell: the seed flows in, legal.
func Reseed(r *rand.Rand, seed int64) {
	r.Seed(seed)
}

// ReseedLiteral reseeds a pooled generator from a constant: flagged.
func ReseedLiteral(r *rand.Rand) {
	r.Seed(7) // want "ad-hoc seed for rand.Seed"
}
