// Package registry is the name-based component catalog behind the
// declarative scenario API: protocols, topologies, adversaries, greedy
// policies, and invariants register under stable names with typed
// parameter schemas, and scenario files (internal/scenario) resolve
// against it. The registry is the single source of truth for what a name
// means — the CLIs carry no per-command construction switches.
//
// All tables support runtime extension (RegisterProtocol and friends),
// so a new component drops into the same scenario machinery: register a
// name once and every scenario file, sweep, and CLI invocation can use
// it.
//
// Lookups of unknown names fail with an enumeration of the registered
// names and a "did you mean" suggestion when a close match exists.
package registry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/sim"
)

// Topology is a registered topology family: a named constructor with a
// parameter schema. Build receives resolved canonical params and must be a
// pure function of them: TopologyBuilder shares one network among all cells
// of the same family and params. Bandwidths are not a topology parameter —
// scenarios impose them uniformly on a copy of the built network (the
// harness's bandwidth axis), keeping "shape" and "link speed" independent
// axes.
type Topology struct {
	Name string
	Doc  string
	// Params declares the schema; Build receives values resolved against it.
	Params Schema
	Build  func(p Params) (*network.Network, error)
}

// Protocol is a registered forwarding protocol. Note states the paper's
// guarantee for reports ("Proposition 3.1: max load ≤ 2+σ"). Bound, when
// non-nil, evaluates that guarantee for one run: the topology, the
// declared (ρ,σ) bound and the adversary's destinations give the max load
// the theorem allows, and false means the run is outside the theorem's
// hypotheses. Protocols with no guarantee leave Bound nil.
type Protocol struct {
	Name   string
	Doc    string
	Params Schema
	Build  func(p Params) (sim.Protocol, error)
	Note   string
	Bound  func(p Params, nw *network.Network, bound adversary.Bound, dests []network.NodeID) (int, bool)
}

// AdversaryContext carries the scenario-level inputs an adversary
// constructor may consume: the built topology, the declared (ρ,σ) bound,
// the cell's seed, and the run horizon (crafted bursts size themselves to
// it).
type AdversaryContext struct {
	Net    *network.Network
	Bound  adversary.Bound
	Seed   int64
	Rounds int
}

// Prepared is the output of a self-hosting adversary (see
// Adversary.Prepare): the pattern dictates its own topology, bound, and
// horizon.
type Prepared struct {
	Net       *network.Network
	Adversary adversary.Adversary
	Bound     adversary.Bound
	Rounds    int
	// Note annotates reports (e.g. the Theorem 5.1 floor).
	Note string
}

// Adversary is a registered injection pattern. Exactly one of Build or
// Prepare is set: Build constructs a pattern for a scenario-chosen
// topology and horizon; Prepare marks a self-hosting construction (the
// Section 5 lower bound) that dictates topology, bound, and horizon
// itself — scenarios using it declare no topology or rounds.
type Adversary struct {
	Name    string
	Doc     string
	Params  Schema
	Build   func(ctx AdversaryContext, p Params) (adversary.Adversary, error)
	Prepare func(bound adversary.Bound, p Params) (*Prepared, error)
}

// SelfHosting reports whether the pattern dictates its own topology and
// horizon.
func (a Adversary) SelfHosting() bool { return a.Prepare != nil }

// Policy is a registered greedy scheduling policy (the intra-buffer order
// of the classical baselines).
type Policy struct {
	Name   string
	Doc    string
	Policy baseline.Policy
}

// Invariant is a registered per-round predicate; scenarios attach them by
// name to turn the paper's bound statements into executable checks.
type Invariant struct {
	Name   string
	Doc    string
	Params Schema
	Build  func(nw *network.Network, p Params) (sim.Invariant, error)
}

// Metric is a registered measurement collector: scenarios select metrics
// by name (the "metrics" axis) and every selected run gets a fresh
// collector instance, whose Summary rides Result.Metrics, cell records,
// and result digests. Build must return a new collector per call —
// collectors are stateful and single-run — and gets the run's rounds, to
// size what the collector keeps per round.
type Metric struct {
	Name   string
	Doc    string
	Params Schema
	Build  func(p Params, rounds int) (metrics.Collector, error)
}

// Fault is a registered fault-injection model: scenarios attach one by
// name (the "faults" axis) and every faulted run gets a fresh model
// instance, bound to the run's topology and derived seed via Model.Reset
// before the engine starts. Build must validate its parameters against
// the registry-side bounds (probabilities in [0,1], window lengths
// capped) — fault params arrive over the network through aqtserve, so a
// hostile scenario must not be able to request degenerate schedules.
type Fault struct {
	Name   string
	Doc    string
	Params Schema
	Build  func(p Params) (faults.Model, error)
}

// table is one mutex-guarded name→entry catalog.
type table[T any] struct {
	kind    string
	mu      sync.RWMutex
	entries map[string]T
}

func newTable[T any](kind string) *table[T] {
	return &table[T]{kind: kind, entries: make(map[string]T)}
}

func (t *table[T]) register(name string, e T) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("registry: %s with empty name", t.kind)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.entries[name]; dup {
		return fmt.Errorf("registry: duplicate %s %q", t.kind, name)
	}
	t.entries[name] = e
	return nil
}

func (t *table[T]) lookup(name string) (T, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.entries[name]; ok {
		return e, nil
	}
	var zero T
	return zero, fmt.Errorf("registry: unknown %s %q%s (registered: %s)",
		t.kind, name, didYouMean(name, t.namesLocked()), strings.Join(t.namesLocked(), ", "))
}

func (t *table[T]) names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.namesLocked()
}

func (t *table[T]) namesLocked() []string {
	out := make([]string, 0, len(t.entries))
	for n := range t.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var (
	topologies  = newTable[Topology]("topology")
	protocols   = newTable[Protocol]("protocol")
	adversaries = newTable[Adversary]("adversary")
	policies    = newTable[Policy]("greedy policy")
	invariants  = newTable[Invariant]("invariant")
	metricsTbl  = newTable[Metric]("metric")
	faultsTbl   = newTable[Fault]("fault model")
)

// RegisterTopology adds a topology family under its name; duplicate names
// are rejected.
func RegisterTopology(t Topology) error { return topologies.register(t.Name, t) }

// RegisterProtocol adds a forwarding protocol under its name.
func RegisterProtocol(p Protocol) error {
	if p.Build == nil {
		return fmt.Errorf("registry: protocol %q has no Build", p.Name)
	}
	return protocols.register(p.Name, p)
}

// RegisterAdversary adds an injection pattern under its name; exactly one
// of Build and Prepare must be set.
func RegisterAdversary(a Adversary) error {
	if (a.Build == nil) == (a.Prepare == nil) {
		return fmt.Errorf("registry: adversary %q must set exactly one of Build and Prepare", a.Name)
	}
	return adversaries.register(a.Name, a)
}

// RegisterPolicy adds a greedy policy under its name.
func RegisterPolicy(p Policy) error { return policies.register(p.Name, p) }

// RegisterInvariant adds a named per-round predicate.
func RegisterInvariant(i Invariant) error { return invariants.register(i.Name, i) }

// RegisterMetric adds a measurement collector under its name.
func RegisterMetric(m Metric) error {
	if m.Build == nil {
		return fmt.Errorf("registry: metric %q has no Build", m.Name)
	}
	return metricsTbl.register(m.Name, m)
}

// RegisterFault adds a fault-injection model under its name.
func RegisterFault(f Fault) error {
	if f.Build == nil {
		return fmt.Errorf("registry: fault model %q has no Build", f.Name)
	}
	return faultsTbl.register(f.Name, f)
}

// LookupTopology resolves a topology by name.
func LookupTopology(name string) (Topology, error) { return topologies.lookup(name) }

// memoNodes bounds the topology memo: the networks it holds have at most
// 1<<16 nodes in all, about 3 MB. That covers the traffic it serves many
// times over: the 30 pinned scenario files use 11 distinct topologies and
// the benchmark's workloads add path(4096), binary(3) and spider(3,5),
// 4,630 nodes together. A network larger than the bound is built afresh
// for every cell, as it was before the memo. Each free list of the scratch
// cells hand back (freelist.Nodes) has the same budget.
const memoNodes = 1 << 16

// memo holds the networks TopologyBuilder has built, by key; nodes sums
// their sizes.
var memo struct {
	sync.Mutex
	nets  map[string]*network.Network
	nodes int
}

// TopologyBuilder returns the function that gives the network the named
// topology family builds from the resolved params p, built once per
// process: a Network is immutable, so every cell of the same family and
// params shares one, and the bandwidth axis runs on a copy that replaces
// only the bandwidths. The memo is keyed by the family name and the
// canonical JSON encoding of p, made here once, never by a label a
// scenario chose, and holds at most memoNodes nodes: a network that would
// overflow it empties it first.
func TopologyBuilder(name string, p Params) (func() (*network.Network, error), error) {
	e, err := LookupTopology(name)
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(p.JSONMap())
	if err != nil {
		return nil, fmt.Errorf("registry: topology %q: %w", name, err)
	}
	key := name + "\x00" + string(enc)
	return func() (*network.Network, error) {
		memo.Lock()
		nw, ok := memo.nets[key]
		memo.Unlock()
		if ok {
			return nw, nil
		}
		nw, err := e.Build(p)
		if err != nil {
			return nil, err
		}
		remember(key, nw)
		return nw, nil
	}, nil
}

// remember adds nw to the memo under key, emptying the memo first when nw
// would overflow it. Two cells that built the same network at once keep
// the first one's.
func remember(key string, nw *network.Network) {
	n := nw.Len()
	if n > memoNodes {
		return
	}
	memo.Lock()
	defer memo.Unlock()
	if _, ok := memo.nets[key]; ok {
		return
	}
	if memo.nets == nil || memo.nodes+n > memoNodes {
		memo.nets, memo.nodes = make(map[string]*network.Network), 0
	}
	memo.nets[key] = nw
	memo.nodes += n
}

// LookupProtocol resolves a protocol by name.
func LookupProtocol(name string) (Protocol, error) { return protocols.lookup(name) }

// LookupAdversary resolves an adversary by name.
func LookupAdversary(name string) (Adversary, error) { return adversaries.lookup(name) }

// LookupPolicy resolves a greedy policy by name.
func LookupPolicy(name string) (Policy, error) { return policies.lookup(name) }

// LookupInvariant resolves an invariant by name.
func LookupInvariant(name string) (Invariant, error) { return invariants.lookup(name) }

// LookupMetric resolves a measurement collector by name.
func LookupMetric(name string) (Metric, error) { return metricsTbl.lookup(name) }

// LookupFault resolves a fault model by name.
func LookupFault(name string) (Fault, error) { return faultsTbl.lookup(name) }

// TopologyNames enumerates the registered topology names, sorted.
func TopologyNames() []string { return topologies.names() }

// ProtocolNames enumerates the registered protocol names, sorted.
func ProtocolNames() []string { return protocols.names() }

// AdversaryNames enumerates the registered adversary names, sorted.
func AdversaryNames() []string { return adversaries.names() }

// PolicyNames enumerates the registered greedy policy names, sorted.
func PolicyNames() []string { return policies.names() }

// InvariantNames enumerates the registered invariant names, sorted.
func InvariantNames() []string { return invariants.names() }

// MetricNames enumerates the registered metric names, sorted.
func MetricNames() []string { return metricsTbl.names() }

// FaultNames enumerates the registered fault model names, sorted.
func FaultNames() []string { return faultsTbl.names() }

// mustRegister panics on registration errors; built-in registration runs
// at init time where a failure is a programming error.
func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}
