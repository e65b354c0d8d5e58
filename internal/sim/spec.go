package sim

import (
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
)

// Spec describes one simulation run for the context-aware execution API.
// The required parameters (topology, protocol, adversary, horizon) are
// positional in NewSpec; everything else is a functional option. A Spec is
// a value: it can be copied, stored in tables, and replayed — the same Spec
// always produces the same Result (protocols and adversaries carry their
// own seeds, so "same Spec" means rebuilding those from the same seeds).
type Spec struct {
	net       *network.Network
	protocol  Protocol
	adversary adversary.Adversary
	rounds    int

	observers       []Observer
	invariants      []Invariant
	collectors      []metrics.Collector
	faults          faults.Model
	verifyAdversary bool
}

// Option customizes a Spec.
type Option func(*Spec)

// NewSpec assembles a run description: execute protocol against adversary
// on nw for the given number of rounds.
func NewSpec(nw *network.Network, p Protocol, adv adversary.Adversary, rounds int, opts ...Option) Spec {
	s := Spec{net: nw, protocol: p, adversary: adv, rounds: rounds}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithObservers registers observers that receive the run's events. They
// are dispatched after the run's collectors, on every hook of every
// round.
func WithObservers(obs ...Observer) Option {
	return func(s *Spec) { s.observers = append(s.observers, obs...) }
}

// WithInvariants registers per-round predicates; a violation aborts the
// run. Invariants power the bound assertions in tests and experiments.
func WithInvariants(invs ...Invariant) Option {
	return func(s *Spec) { s.invariants = append(s.invariants, invs...) }
}

// WithMetrics selects the run's metric collectors; their summaries
// populate Result.Metrics, keyed by collector name. Collectors are
// stateful and single-run — hand each Spec fresh instances. Without this
// option the default set {max_load, latency} reports (the engine runs
// those two regardless, to source the historical Result scalars).
func WithMetrics(cs ...metrics.Collector) Option {
	return func(s *Spec) { s.collectors = append(s.collectors, cs...) }
}

// WithFaults attaches a fault model to the run's forwarding step: a
// downed link (Model.LinkUp false) forwards zero packets regardless of
// bandwidth — the protocol's decisions over it are nullified and the
// packets stay buffered — and a dropped packet (Model.Drops true) leaves
// its buffer and consumes the link but never arrives. The model must
// already be bound to the run's topology and seed via Model.Reset; the
// harness and scenario layers do this with the cell's derived seed, so
// fault schedules are reproducible at any sweep-worker count. A nil model
// (or no option) is the loss-free paper model, byte-identical to runs
// before faults existed.
func WithFaults(m faults.Model) Option {
	return func(s *Spec) { s.faults = m }
}

// WithVerifyAdversary re-checks every injection against the adversary's
// declared (ρ,σ) bound; a violation aborts the run. Crafted adversaries are
// pre-verified, so this is off by default.
func WithVerifyAdversary() Option {
	return func(s *Spec) { s.verifyAdversary = true }
}

// Net returns the topology the run executes on.
func (s Spec) Net() *network.Network { return s.net }

// Protocol returns the forwarding protocol under test.
func (s Spec) Protocol() Protocol { return s.protocol }

// Adversary returns the injection pattern.
func (s Spec) Adversary() adversary.Adversary { return s.adversary }

// Rounds returns the run horizon.
func (s Spec) Rounds() int { return s.rounds }

// Faults returns the run's fault model (nil for the loss-free model).
func (s Spec) Faults() faults.Model { return s.faults }
