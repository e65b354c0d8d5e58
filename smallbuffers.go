// Package smallbuffers is a simulation library and reproduction of
// "With Great Speed Come Small Buffers: Space-Bandwidth Tradeoffs for
// Routing" (Miller, Patt-Shamir, Rosenbaum; PODC 2019).
//
// It provides, under one stable API:
//
//   - the adversarial-queuing model of the paper: synchronous store-and-
//     forward rounds on directed paths and in-trees, with (ρ,σ)-bounded
//     packet injections (Definition 2.1) and capacitated links — every
//     link has a bandwidth B ≥ 1 (the paper's unit capacity is the
//     default; WithUniformBandwidth/WithLinkBandwidth configure more), the
//     engine enforces "at most B(v) packets leave v per round", and demand
//     rates ρ are admissible up to the bottleneck bandwidth;
//   - the paper's forwarding algorithms: PTS (Alg. 1, ≤ 2+σ), PPTS
//     (Alg. 2, ≤ 1+d+σ), their directed-tree variants (App. B.2), and the
//     hierarchical HPTS (Algs. 3–5, ≤ ℓ·n^(1/ℓ)+σ+1 at rate ρ ≤ 1/ℓ);
//   - the Section 5 lower-bound adversary forcing Ω(((ℓ+1)ρ−1)/2ℓ·n^(1/ℓ))
//     space against every protocol, with the fresh/stale accounting of
//     Lemmas 5.2–5.4 as an executable tracker;
//   - classical greedy baselines (FIFO, LIFO, LIS, SIS, NTG, FTG);
//   - adversary construction kits: verified replay schedules, shaped random
//     patterns that are (ρ,σ)-bounded by construction, crafted worst cases;
//   - an experiment harness regenerating every theorem and figure of the
//     paper (see EXPERIMENTS.md), plus tracing and ASCII visualization;
//   - a declarative scenario layer: workloads as JSON files resolved
//     against a name-based component registry (LoadScenario,
//     Scenario.Run, RegisterProtocol/RegisterAdversary extension hooks;
//     see testdata/scenarios/ and the "Scenario files" section of
//     README.md);
//   - a metrics tier: measurement as data — typed collectors selected by
//     registry name (WithMetrics, the scenario "metrics" axis) distill
//     runs into deterministic integer summaries (bounded occupancy
//     series, occupancy/latency histograms with percentiles, link
//     utilization, drop rate, goodput) that flow through Result.Metrics,
//     sweep records, the service tier, and result digests (see the
//     "Metrics" section of README.md);
//   - deterministic fault injection: registry-named fault models — i.i.d.
//     packet drops, seeded link flaps, node-crash windows — whose
//     schedules are stateless keyed hashes of the cell seed, so lossy
//     runs reproduce exactly at any sweep parallelism and fold into
//     result digests (WithFaults, the scenario "faults" axis, aqtsim
//     -fault; see the "Faults" section of README.md).
//
// # Quick start
//
// Execution is a two-tier API. Tier 1 runs one scenario through the
// context-aware engine: describe the run with NewSpec and functional
// options, then execute it with RunContext (cancellation is honored
// between rounds):
//
//	nw, _ := smallbuffers.NewPath(64)
//	adv, _ := smallbuffers.NewRandomAdversary(nw, smallbuffers.Bound{
//		Rho: smallbuffers.NewRat(1, 1), Sigma: 2,
//	}, nil, 42)
//	res, _ := smallbuffers.RunContext(context.Background(),
//		smallbuffers.NewSpec(nw, smallbuffers.NewPPTS(), adv, 1000))
//	fmt.Println(res.MaxLoad) // ≤ 1 + d + σ per Proposition 3.2
//
// Tier 2 runs whole families of scenarios: a Sweep names the axes of a
// cartesian grid (protocols × topologies × bounds × adversaries × seeds ×
// rounds) and executes it on a bounded worker pool with deterministic
// per-cell seeds, streaming per-cell results and aggregating summaries:
//
//	sweep := &smallbuffers.Sweep{
//		Protocols:   []smallbuffers.SweepProtocol{smallbuffers.NewSweepProtocol("PPTS", func() smallbuffers.Protocol { return smallbuffers.NewPPTS() })},
//		Topologies:  []smallbuffers.SweepTopology{smallbuffers.SweepPath(64), smallbuffers.SweepPath(256)},
//		Bounds:      []smallbuffers.Bound{{Rho: smallbuffers.NewRat(1, 1), Sigma: 2}},
//		Adversaries: []smallbuffers.SweepAdversary{smallbuffers.SweepRandomAdversary(nil)},
//		Seeds:       []int64{1, 2, 3, 4},
//		Rounds:      []int{2000},
//	}
//	agg, _ := sweep.Run(ctx)
//	fmt.Println(agg.MaxLoad.Mean, agg.MaxLoad.Max)
package smallbuffers

import (
	"context"
	"io"
	"math/rand"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/experiments"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/fleet"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/live"
	"smallbuffers/internal/local"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/opt"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
	"smallbuffers/internal/store"
	"smallbuffers/internal/trace"
)

// Core model types, re-exported.
type (
	// NodeID identifies a node; nodes of an n-node network are 0…n−1.
	NodeID = network.NodeID
	// Network is an immutable directed in-forest (path or in-tree).
	Network = network.Network
	// Rat is an exact rational; injection rates ρ are Rats.
	Rat = rat.Rat
	// Bound is a (ρ,σ) demand bound (Definition 2.1).
	Bound = adversary.Bound
	// Injection is a packet-to-be emitted by an adversary.
	Injection = packet.Injection
	// Packet is a routed packet.
	Packet = packet.Packet
	// Adversary produces each round's injections.
	Adversary = adversary.Adversary
	// Protocol is a centralized online forwarding algorithm.
	Protocol = sim.Protocol
	// Spec describes one simulation run for the context-aware API; build
	// it with NewSpec and the With* options.
	Spec = sim.Spec
	// RunOption customizes a Spec (WithObservers, WithInvariants,
	// WithMetrics, WithFaults, WithVerifyAdversary, WithDeadline).
	RunOption = sim.Option
	// Engine is the reusable simulation engine: Run(ctx) for whole runs,
	// Step/Reset for incremental driving and allocation-light reuse.
	Engine = sim.Engine
	// Result summarizes a run.
	Result = sim.Result
	// Summary aggregates a numeric sample (mean/max/percentiles); sweep
	// results report their per-cell metrics through it.
	Summary = stats.Summary
	// Sweep is a declarative cartesian grid of runs executed on a bounded
	// worker pool (Tier 2 of the execution API).
	Sweep = harness.Sweep
	// SweepResult aggregates an executed sweep.
	SweepResult = harness.SweepResult
	// SweepCell identifies one point of a sweep grid.
	SweepCell = harness.Cell
	// SweepCellResult pairs a cell with its run outcome.
	SweepCellResult = harness.CellResult
	// SweepProtocol is one point on a sweep's protocol axis.
	SweepProtocol = harness.ProtocolSpec
	// SweepTopology is one point on a sweep's topology axis.
	SweepTopology = harness.TopologySpec
	// SweepAdversary is one point on a sweep's adversary axis.
	SweepAdversary = harness.AdversarySpec
	// View is the read-only configuration protocols observe.
	View = sim.View
	// Forward is one forwarding decision.
	Forward = sim.Forward
	// Move is an applied forwarding decision, as every hook sees it.
	Move = metrics.Move
	// Observer receives a run's round events; metric collectors are
	// Observers too, and the engine drives both through one hook list.
	Observer = metrics.Observer
	// NopObserver is an embeddable no-op Observer (and the base of custom
	// MetricCollectors).
	NopObserver = metrics.NopObserver
	// Invariant is a per-round predicate checked by the engine after
	// every hook's OnRoundEnd.
	Invariant = sim.Invariant
	// Hierarchy is the base-m partition HPTS runs on (§4.1).
	Hierarchy = core.Hierarchy
	// Segment is one leg of a packet's virtual trajectory (Figure 1).
	Segment = core.Segment
	// Experiment is one unit of the reproduction suite.
	Experiment = experiments.Experiment
	// ExperimentOutcome is an experiment's structured result.
	ExperimentOutcome = experiments.Outcome
	// GreedyPolicy ranks packets within a buffer for greedy baselines.
	GreedyPolicy = baseline.Policy
	// LowerBoundAdversary is the Section 5 construction.
	LowerBoundAdversary = lowerbound.Adversary
	// StalenessTracker replays the Section 5 fresh/stale accounting.
	StalenessTracker = lowerbound.StalenessTracker
	// TraceRecorder captures events and occupancy matrices.
	TraceRecorder = trace.Recorder
)

// None is the sentinel "no node" value.
const None = network.None

// NewRat returns the exact rational p/q (panics if q = 0).
func NewRat(p, q int64) Rat { return rat.New(p, q) }

// ParseRat parses "p/q", an integer, or a decimal.
func ParseRat(s string) (Rat, error) { return rat.Parse(s) }

// --- Topologies ---

// NetworkOption configures a topology under construction; today's options
// set link bandwidths (WithUniformBandwidth, WithLinkBandwidth).
type NetworkOption = network.Option

// WithUniformBandwidth sets every link's bandwidth to b ≥ 1. The paper's
// unit-capacity model is b = 1, the default.
func WithUniformBandwidth(b int) NetworkOption { return network.WithUniformBandwidth(b) }

// WithLinkBandwidth sets the bandwidth of the link out of node v,
// overriding the uniform default for that link.
func WithLinkBandwidth(v NodeID, b int) NetworkOption { return network.WithLinkBandwidth(v, b) }

// NewPath returns the directed path 0 → 1 → … → n−1.
func NewPath(n int, opts ...NetworkOption) (*Network, error) { return network.NewPath(n, opts...) }

// NewTree builds an in-tree from a parent vector (exactly one root).
func NewTree(parent []NodeID, opts ...NetworkOption) (*Network, error) {
	return network.NewTree(parent, opts...)
}

// NewForest builds an in-forest from a parent vector (≥ 1 roots).
func NewForest(parent []NodeID, opts ...NetworkOption) (*Network, error) {
	return network.NewForest(parent, opts...)
}

// RandomTree returns a random in-tree on n nodes rooted at n−1.
func RandomTree(n int, rng *rand.Rand, opts ...NetworkOption) (*Network, error) {
	return network.RandomTree(n, rng, opts...)
}

// CaterpillarTree returns a spine path with `legs` leaves per spine node.
func CaterpillarTree(spine, legs int, opts ...NetworkOption) (*Network, error) {
	return network.CaterpillarTree(spine, legs, opts...)
}

// BinaryTree returns a complete binary in-tree of the given height.
func BinaryTree(height int, opts ...NetworkOption) (*Network, error) {
	return network.BinaryTree(height, opts...)
}

// SpiderTree returns `arms` directed paths merging into one root.
func SpiderTree(arms, length int, opts ...NetworkOption) (*Network, error) {
	return network.SpiderTree(arms, length, opts...)
}

// --- Protocols (the paper's algorithms) ---

// NewPTS returns Peak-to-Sink (Algorithm 1): single destination on a path,
// max load ≤ 2 + σ (Proposition 3.1, stated at unit capacity). On links of
// bandwidth B the activation rule is unchanged and forwarding follows the
// cascaded-rate discipline: drains accelerate up to B per round from the
// destination end, so the measured max load is non-increasing in B (E12).
func NewPTS(opts ...core.PTSOption) *core.PTS { return core.NewPTS(opts...) }

// PTSWithDrain enables forwarding on rounds with no bad buffer (liveness
// extension that preserves the bound).
func PTSWithDrain() core.PTSOption { return core.WithDrain() }

// NewPPTS returns Parallel Peak-to-Sink (Algorithm 2): d destinations on a
// path, max load ≤ 1 + d + σ (Proposition 3.2, at unit capacity). On
// bandwidth-B links each activated pseudo-buffer drains at up to B per
// round under the cascaded-rate discipline; the d pseudo-buffer term is
// structural (one interval per node) and does not shrink with B, but the
// backlog term does, so max load is non-increasing in B (E12).
func NewPPTS(opts ...core.PPTSOption) *core.PPTS { return core.NewPPTS(opts...) }

// PPTSWithDrain enables the drain-when-idle liveness extension.
func PPTSWithDrain() core.PPTSOption { return core.PPTSWithDrain() }

// NewTreePTS returns the directed-tree PTS (Proposition B.3: ≤ 2 + σ at
// unit capacity; on bandwidth-B links drains cascade root-ward at up to B).
func NewTreePTS(opts ...core.TreePTSOption) *core.TreePTS { return core.NewTreePTS(opts...) }

// TreePTSWithDrain enables drain-when-idle for TreePTS.
func TreePTSWithDrain() core.TreePTSOption { return core.TreePTSWithDrain() }

// NewTreePPTS returns the directed-tree PPTS (Proposition 3.5:
// ≤ 1 + d′ + σ, d′ = max destinations on a leaf-root path, at unit
// capacity; on bandwidth-B links drains cascade root-ward at up to B).
func NewTreePPTS() *core.TreePPTS { return core.NewTreePPTS() }

// NewHPTS returns Hierarchical Peak-to-Sink (Algorithms 3–5) with ℓ
// levels on a path of n = m^ℓ nodes: max load ≤ ℓ·n^(1/ℓ) + σ + 1 whenever
// ρ·ℓ ≤ 1 (Theorem 4.1, proven at unit capacity; B > 1 runs a best-effort
// capacitated generalization that recovers the theorem's algorithm at
// B = 1).
func NewHPTS(ell int, opts ...core.HPTSOption) *core.HPTS { return core.NewHPTS(ell, opts...) }

// HPTSAblatePreBad disables Algorithm 5 (ablation knob for experiments).
func HPTSAblatePreBad() core.HPTSOption { return core.HPTSAblatePreBad() }

// NewHierarchy returns the base-m, ℓ-level partition over m^ℓ nodes.
func NewHierarchy(m, ell int) (*Hierarchy, error) { return core.NewHierarchy(m, ell) }

// DestinationDepth returns d′(G, W): the maximum number of destinations on
// any leaf-root path (Proposition 3.5's parameter).
func DestinationDepth(nw *Network, dests []NodeID) int {
	return core.DestinationDepth(nw, dests)
}

// --- Baselines ---

// NewGreedy returns a work-conserving greedy protocol with the given
// intra-buffer policy.
func NewGreedy(p GreedyPolicy) *baseline.Greedy { return baseline.NewGreedy(p) }

// Greedy scheduling policies from classical AQT.
var (
	FIFO GreedyPolicy = baseline.FIFO{}
	LIFO GreedyPolicy = baseline.LIFO{}
	LIS  GreedyPolicy = baseline.LIS{}
	SIS  GreedyPolicy = baseline.SIS{}
	NTG  GreedyPolicy = baseline.NTG{}
	FTG  GreedyPolicy = baseline.FTG{}
)

// AllGreedy returns one greedy protocol per classical policy.
func AllGreedy() []*baseline.Greedy { return baseline.All() }

// --- Local protocols (the §1 locality context, [9]/[17]) ---

// NewDownhill returns the naive locality-1 protocol: a node forwards while
// its buffer is strictly larger than its next hop's, moving up to
// min(B(v), gradient) packets per round on capacitated links. Single
// destination (the sink). Under sustained full-rate traffic its steady
// state is the Θ(n) staircase — the gap experiment E10 measures against
// PTS's O(1+σ).
func NewDownhill() *local.Downhill { return local.NewDownhill() }

// NewOddEvenDownhill returns the parity-staggered downhill variant (in the
// spirit of the OED algorithm of [9,17]); it sustains rates ρ ≤ 1/2.
func NewOddEvenDownhill() *local.OddEven { return local.NewOddEven() }

// --- Adversaries ---

// NewRandomAdversary returns a randomized pattern that is (ρ,σ)-bounded by
// construction, injecting toward dests (the sinks if nil), deterministic in
// seed.
func NewRandomAdversary(nw *Network, bound Bound, dests []NodeID, seed int64) (Adversary, error) {
	return adversary.NewRandom(nw, bound, dests, seed)
}

// NewHotSpotAdversary returns an *adaptive* (ρ,σ)-bounded pattern that aims
// every admissible injection at the currently fullest buffer. The paper's
// bounds quantify over all patterns, so they hold against it — it is the
// sharpest stress test in the suite.
func NewHotSpotAdversary(nw *Network, bound Bound, dests []NodeID, seed int64) (Adversary, error) {
	return adversary.NewHotSpot(nw, bound, dests, seed)
}

// NewStream returns a smooth rate-ρ single-route stream src → dst.
func NewStream(bound Bound, src, dst NodeID) Adversary {
	return adversary.NewStream(bound, src, dst)
}

// NewRoundRobin returns a smooth aggregate rate-ρ flow from src cycling the
// given destinations.
func NewRoundRobin(bound Bound, src NodeID, dests []NodeID) Adversary {
	return adversary.NewRoundRobin(bound, src, dests)
}

// NewSchedule returns a fluent builder for explicit injection schedules.
func NewSchedule() *adversary.Schedule { return adversary.NewSchedule() }

// NewUnion merges adversaries; the derived bound is the sum of the parts'
// bounds, even past ρ = 1 (rates up to the bottleneck bandwidth are
// admissible on capacitated networks, and over-rate unions fail
// verification with a clear error instead of under-declaring). Use
// WithUnionBound on the result to declare a tighter bound for
// edge-disjoint parts.
func NewUnion(parts ...Adversary) *adversary.Union { return adversary.NewUnion(parts...) }

// NewDelayed time-shifts an adversary by `offset` silent rounds.
func NewDelayed(inner Adversary, offset int) Adversary {
	return adversary.NewDelayed(inner, offset)
}

// NewOnOff returns a bursty on-off source src → dst whose duty cycle is
// derived from (ρ,σ) so the pattern is bounded by construction.
func NewOnOff(bound Bound, src, dst NodeID) (Adversary, error) {
	return adversary.NewOnOff(bound, src, dst)
}

// PTSBurstAdversary is the crafted near-tight pattern for Proposition 3.1.
func PTSBurstAdversary(nw *Network, bound Bound, horizon int) (Adversary, error) {
	return adversary.PTSBurst(nw, bound, horizon)
}

// PPTSBurstAdversary is the crafted near-tight pattern for Proposition 3.2.
func PPTSBurstAdversary(nw *Network, bound Bound, d, horizon int) (Adversary, error) {
	return adversary.PPTSBurst(nw, bound, d, horizon)
}

// TreeBurstAdversary is the crafted pattern for Proposition 3.5.
func TreeBurstAdversary(nw *Network, bound Bound, dests []NodeID, horizon int) (Adversary, error) {
	return adversary.TreeBurst(nw, bound, dests, horizon)
}

// GreedyKillerAdversary is the multi-destination stress pattern of §1/[17].
func GreedyKillerAdversary(nw *Network, bound Bound, d, horizon int) (Adversary, error) {
	return adversary.GreedyKiller(nw, bound, d, horizon)
}

// NewLowerBoundAdversary returns the Section 5 construction with the given
// m, ℓ and rate ρ (ρ·m must be an integer).
func NewLowerBoundAdversary(m, ell int, rho Rat) (*LowerBoundAdversary, error) {
	return lowerbound.New(m, ell, rho)
}

// NewStalenessTracker returns an observer verifying Lemmas 5.2–5.4 during a
// run of the lower-bound pattern.
func NewStalenessTracker(adv *LowerBoundAdversary) *StalenessTracker {
	return lowerbound.NewStalenessTracker(adv)
}

// VerifyAdversary replays an adversary for `rounds` rounds through the
// exact (ρ,σ) verifier, returning the first violation if any. The bound is
// admitted against the network's bottleneck bandwidth (ρ ≤ B_min). The
// adversary is consumed.
func VerifyAdversary(nw *Network, adv Adversary, rounds int) error {
	return adversary.VerifyPrefix(nw, adv, rounds)
}

// --- Execution (Tier 1: one run) ---

// NewSpec assembles a run description: execute protocol p against
// adversary adv on nw for the given number of rounds. Options attach
// observers, invariants, adversary verification, and a wall-clock
// deadline.
func NewSpec(nw *Network, p Protocol, adv Adversary, rounds int, opts ...RunOption) Spec {
	return sim.NewSpec(nw, p, adv, rounds, opts...)
}

// WithObservers registers observers that receive the run's events.
func WithObservers(obs ...Observer) RunOption { return sim.WithObservers(obs...) }

// WithInvariants registers per-round predicates; a violation aborts the
// run.
func WithInvariants(invs ...Invariant) RunOption { return sim.WithInvariants(invs...) }

// WithVerifyAdversary re-checks every injection against the adversary's
// declared (ρ,σ) bound.
func WithVerifyAdversary() RunOption { return sim.WithVerifyAdversary() }

// WithMetrics selects the run's metric collectors; their summaries land
// in Result.Metrics keyed by collector name. Collectors are stateful and
// single-run — build fresh instances per run (NewMetric). Without this
// option the default {max_load, latency} set reports.
func WithMetrics(cs ...MetricCollector) RunOption { return sim.WithMetrics(cs...) }

// WithDeadline sets a wall-clock budget for the run; when it expires the
// run stops between rounds with context.DeadlineExceeded.
func WithDeadline(d time.Duration) RunOption { return sim.WithDeadline(d) }

// RunContext executes one simulation under ctx. Cancellation is honored
// between rounds; on cancellation the partial Result is returned together
// with the context's error.
func RunContext(ctx context.Context, spec Spec) (Result, error) { return sim.Run(ctx, spec) }

// NewEngine validates spec and prepares a reusable engine: Run(ctx)
// executes it, Step drives it one round at a time, and Reset rebinds it to
// another Spec while keeping its buffer allocations.
func NewEngine(spec Spec) (*Engine, error) { return sim.NewEngine(spec) }

// --- Execution (Tier 2: sweeps) ---

// NewSweepProtocol wraps a protocol constructor as a sweep axis entry;
// every cell gets a fresh instance.
func NewSweepProtocol(name string, mk func() Protocol) SweepProtocol {
	return harness.Protocol(name, mk)
}

// SweepPath is the path-topology axis entry on n nodes.
func SweepPath(n int) SweepTopology { return harness.Path(n) }

// SweepRandomAdversary is the adversary axis entry for the shaped random
// pattern injecting toward dests (the sinks if nil); each cell draws its
// own deterministically derived seed.
func SweepRandomAdversary(dests []NodeID) SweepAdversary {
	return harness.RandomAdversary(dests)
}

// MaxLoadInvariant returns an Invariant asserting every buffer stays at or
// below `bound` packets — the executable form of the space theorems.
func MaxLoadInvariant(nw *Network, bound int) Invariant {
	return core.MaxLoadInvariant(nw, bound)
}

// NewTraceRecorder returns an Observer capturing events and the per-round
// occupancy matrix (JSON export, heatmap rendering).
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewConservationCheck returns an Observer asserting packet conservation
// (delivered + buffered + staged = injected, nothing past its destination)
// after every round; inspect its Err field after the run.
func NewConservationCheck() *sim.ConservationCheck { return sim.NewConservationCheck() }

// RenderFigure1 draws the paper's Figure 1 for the given hierarchy and an
// optional packet trajectory (pass src ≥ dst to omit it).
func RenderFigure1(w io.Writer, h *Hierarchy, src, dst int) error {
	return trace.RenderFigure1(w, h, src, dst)
}

// RenderSparkline draws a compact per-round series (e.g. a recorder's
// MaxLoadSeries) as a unicode sparkline.
func RenderSparkline(w io.Writer, series []int, width int) error {
	return trace.RenderSparkline(w, series, width)
}

// RenderSeries draws an arbitrary integer series (e.g. a MetricSeries'
// Values) as a labeled unicode sparkline.
func RenderSeries(w io.Writer, label string, series []int, width int) error {
	return trace.RenderSeries(w, label, series, width)
}

// --- Metrics (measurement as data) ---
//
// Measurement is data, like workloads: a MetricCollector observes a run
// through typed hooks and distills it into a MetricSummary — an
// integer-only, deterministic record that rides Result.Metrics, sweep
// cell records, the service tier's streams, and result digests.
// Collectors are selected by registry name (the scenario "metrics" axis,
// aqtsim -metrics) or attached directly with WithMetrics.

type (
	// MetricCollector is an Observer that distills one run into a
	// MetricSummary; implementations embed NopObserver and register with
	// RegisterMetric. Like every Observer it sees every round, so idle
	// rounds reach it as empty OnInject/OnForward calls.
	MetricCollector = metrics.Collector
	// MetricSummary is a collector's canonical integer-only output:
	// named scalars, bounded series, and histograms.
	MetricSummary = metrics.Summary
	// MetricSeries is one bounded per-round series: stride-doubled
	// values over the whole run plus an exact recent tail.
	MetricSeries = metrics.SeriesRecord
	// MetricHist is a histogram with exact low buckets, a log2 tail, and
	// deterministic integer quantiles.
	MetricHist = metrics.HistRecord
	// RegistryMetric describes a registrable measurement collector.
	RegistryMetric = registry.Metric
	// HistBar is one labeled count of an ASCII histogram rendering.
	HistBar = stats.HistBar
	// MetricView is the read-only engine state every hook and invariant
	// observes: View plus phased-staging counts.
	MetricView = metrics.View
	// MetricPoint identifies an occupancy sample point within a round
	// (MetricSampleLT, MetricSamplePostForward).
	MetricPoint = metrics.Point
)

// Occupancy sample points, as passed to Observer.OnSample.
const (
	// MetricSampleLT is the paper's measurement point L_t:
	// post-injection, pre-forwarding.
	MetricSampleLT = metrics.LT
	// MetricSamplePostForward samples after the forwarding step.
	MetricSamplePostForward = metrics.PostForward
)

// NewMetric builds a fresh collector from the registry by name, with the
// given parameters resolved against its schema (nil means defaults) —
// e.g. NewMetric("load_series", map[string]any{"cap": 256}).
func NewMetric(name string, params map[string]any) (MetricCollector, error) {
	e, err := registry.LookupMetric(name)
	if err != nil {
		return nil, err
	}
	p, err := e.Params.Resolve(params)
	if err != nil {
		return nil, err
	}
	return e.Build(p)
}

// RegisterMetric registers a measurement collector under a new stable
// name, selectable from scenario files and the CLIs.
func RegisterMetric(m RegistryMetric) error { return registry.RegisterMetric(m) }

// RegisteredMetrics enumerates the registered metric names, sorted.
func RegisteredMetrics() []string { return registry.MetricNames() }

// MergeMetricSummaries aggregates same-shaped summary maps from several
// runs: histograms merge bucket-wise with re-derived quantiles, scalars
// merge by maximum, series drop (no canonical cross-run alignment).
func MergeMetricSummaries(runs []map[string]MetricSummary) (map[string]MetricSummary, error) {
	return metrics.MergeAll(runs)
}

// RenderHistogram draws labeled counts as fixed-width ASCII bars (see
// MetricHist.Bars for histogram summaries).
func RenderHistogram(w io.Writer, title string, bars []HistBar, width int) error {
	return stats.Histogram(w, title, bars, width)
}

// --- Faults (deterministic fault injection) ---
//
// A FaultModel perturbs the forwarding fabric — dropping packets in
// transit or downing links for whole rounds — while leaving injections
// and protocol decisions untouched. Schedules are stateless keyed hashes
// of the bound seed, so faulted runs are exactly reproducible at any
// sweep parallelism, and a nil/absent model is byte-identical to the
// pre-fault engine. Models are selected by registry name (the scenario
// "faults" axis, aqtsim -fault) or attached directly with WithFaults.

type (
	// FaultModel decides, per round and link, whether the link is up and
	// which departing packets are lost; implementations register with
	// RegisterFault. Models must be Reset-bound to a topology and seed
	// before a run.
	FaultModel = faults.Model
	// SweepFault is one point on a sweep's fault axis; the axis is
	// excluded from seed derivation so fault cells replay identical
	// traffic (paired comparisons).
	SweepFault = harness.FaultSpec
	// RegistryFault describes a registrable fault model.
	RegistryFault = registry.Fault
)

// WithFaults attaches a fault model to a run. The model must already be
// bound (FaultModel.Reset) to the run's topology and seed; a Spec without
// this option runs loss-free, byte-identical to the pre-fault engine.
func WithFaults(m FaultModel) RunOption { return sim.WithFaults(m) }

// NewDropFault returns the i.i.d. per-link drop model: each packet
// leaving a buffer is lost in transit with exact probability p ∈ [0,1].
func NewDropFault(p Rat) (*faults.Drop, error) { return faults.NewDrop(p) }

// NewLinkFlapFault returns the transient-outage model: time is cut into
// windows of `period` rounds, and with probability p a window's first
// `down` rounds forward nothing on the affected link.
func NewLinkFlapFault(p Rat, period, down int) (*faults.LinkFlap, error) {
	return faults.NewLinkFlap(p, period, down)
}

// NewNodeCrashFault returns the crash-window model: node v forwards
// nothing during rounds [at, at+duration).
func NewNodeCrashFault(v NodeID, at, duration int) (*faults.NodeCrash, error) {
	return faults.NewNodeCrash(v, at, duration)
}

// NewFault builds a fresh fault model from the registry by name with the
// given parameters (nil means defaults), e.g.
// NewFault("drop", map[string]any{"p": "1/20"}). The model still needs
// FaultModel.Reset before use; the scenario layer and sweeps do this
// automatically.
func NewFault(name string, params map[string]any) (FaultModel, error) {
	e, err := registry.LookupFault(name)
	if err != nil {
		return nil, err
	}
	p, err := e.Params.Resolve(params)
	if err != nil {
		return nil, err
	}
	return e.Build(p)
}

// SweepDropFault is the fault-axis entry for an i.i.d. drop model with
// probability p, labeled "drop(p)".
func SweepDropFault(p Rat) SweepFault { return harness.DropFault(p) }

// RegisterFault registers a fault model under a new stable name,
// selectable from scenario files and the CLIs. Build must bound-check
// its parameters — they arrive over the network through the service
// tier.
func RegisterFault(f RegistryFault) error { return registry.RegisterFault(f) }

// RegisteredFaults enumerates the registered fault-model names, sorted.
func RegisteredFaults() []string { return registry.FaultNames() }

// --- Scenarios (workloads as data) ---
//
// A Scenario is a serializable description of a workload: topology,
// protocol, adversary, (ρ,σ) bound, horizon, bandwidths, seeds, and
// invariant set, each axis a single point or a list. Scenarios marshal to
// and from JSON, validate against the component registry, and lift to a
// Sweep over their axes (a one-point scenario is a one-cell sweep) — so
// reproducing an experiment means running a file (see testdata/scenarios/),
// not editing a program. cmd/aqtsim and cmd/aqtbench consume them via
// -scenario and -scenarios.

type (
	// Scenario is a declarative, serializable workload description; run it
	// with Scenario.Run, serialize with Scenario.Marshal, or lift it with
	// Scenario.Sweep to attach observers. Its content address is
	// Scenario.Digest() — SHA-256 of the canonical Marshal form, stable
	// across every JSON spelling of the same workload — the key the
	// service tier's result cache memoizes on.
	Scenario = scenario.Scenario
	// ScenarioComponent names one registered component plus parameters.
	ScenarioComponent = scenario.Component
	// ScenarioBound is the serializable (ρ,σ) bound: ρ is an exact
	// rational string such as "1/2".
	ScenarioBound = scenario.Bound
	// ScenarioFlags bridges a flag-style flat parameter namespace to a
	// one-point scenario (the CLIs' scenario constructor).
	ScenarioFlags = scenario.Flags
)

// LoadScenario decodes and validates a scenario from r.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// LoadScenarioFile decodes and validates the scenario file at path ("-"
// reads standard input).
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// ParseScenario decodes and validates a scenario from JSON bytes.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ScenarioFromFlags assembles and validates a one-point scenario from a
// flat flag namespace; each component keeps the parameters its registry
// schema declares.
func ScenarioFromFlags(f ScenarioFlags) (*Scenario, error) { return scenario.FromFlags(f) }

// --- Serving (Tier 3: the network execution tier) ---
//
// A Server is an http.Handler that accepts scenario JSON over HTTP
// (POST /v1/runs), executes it on a bounded worker pool, streams per-cell
// results (GET /v1/runs/{id}/stream, NDJSON or SSE), and memoizes
// results in a digest-keyed LRU cache so identical workloads never
// re-simulate. cmd/aqtserve is the ready-made daemon around it; embed a
// Server directly to serve scenarios from your own process.

type (
	// Server is the embeddable scenario-execution service (an
	// http.Handler); create it with NewServer and Drain/Close it on
	// shutdown.
	Server = service.Server
	// ServerConfig sizes a Server: worker pool, per-run sweep workers,
	// cache capacity in cells, and submit queue depth.
	ServerConfig = service.Config
	// ServerReport is the wire form of one served run: identity, status,
	// per-cell records, and the results digest.
	ServerReport = service.Report
	// SweepCellRecord is the deterministic wire form of one executed
	// cell — what the service streams and results digests hash over.
	SweepCellRecord = harness.CellRecord
	// RegistryCatalog is the serializable component catalog (the
	// /v1/registry document).
	RegistryCatalog = registry.CatalogDesc
)

// NewServer starts a scenario-execution service with cfg's bounds; the
// zero Config gets production-lean defaults (4 workers, 4096-cell
// cache).
func NewServer(cfg ServerConfig) *Server { return service.New(cfg) }

// Catalog snapshots the component registry in serializable form — every
// registered topology, protocol, adversary, policy, and invariant with
// its parameter schema (what a Server exposes at /v1/registry).
func Catalog() RegistryCatalog { return registry.Catalog() }

// SweepResultsDigest is the canonical content address of a set of cell
// records: "sha256:<hex>" over their JSON encodings sorted by cell
// index. Identical scenarios produce identical digests locally and
// behind the service tier, at any worker count.
func SweepResultsDigest(recs []SweepCellRecord) string { return harness.RecordsDigest(recs) }

// --- Distributed sweeps (fleet coordination) ---
//
// The fleet tier splits one scenario's sweep grid into deterministic
// index-range shards, dispatches them across a fleet of Servers
// (aqtserve daemons), and merges the streamed cells back into exactly
// the record set — and results digest — of a local run. cmd/aqtctl is
// the ready-made CLI around it.

type (
	// FleetConfig names the daemons and shapes sharding, retry backoff,
	// and work stealing; only Endpoints is required.
	FleetConfig = fleet.Config
	// FleetResult is a completed fleet run: every cell record in global
	// index order plus the fleet summary.
	FleetResult = fleet.Result
	// FleetSummary reports merged counters, grid-wide metric summaries,
	// and the distribution story (cells per daemon, retries, steals,
	// wall-clock vs. ideal).
	FleetSummary = fleet.Summary
	// FleetDaemonStats is one daemon's share of a fleet run.
	FleetDaemonStats = fleet.DaemonStats
	// FleetClock injects time into the coordinator's backoff, keeping
	// retry schedules testable; simulation results never depend on it.
	FleetClock = fleet.Clock
	// CellIndexRange is a half-open range of global sweep cell indices —
	// the fleet's unit of work.
	CellIndexRange = harness.IndexRange
	// ScenarioShard restricts a scenario to an index range of its grid
	// while keeping global cell indices (see Scenario.Slice).
	ScenarioShard = scenario.Shard
)

// RunFleet executes sc's whole grid across the configured daemons and
// returns the merged records: complete and exactly-once, or an error —
// never a partial result.
func RunFleet(ctx context.Context, cfg FleetConfig, sc *Scenario) (*FleetResult, error) {
	return fleet.Run(ctx, cfg, sc)
}

// VerifyFleetLocal re-runs sc in-process and errors unless its records
// digest equals fleetDigest — the end-to-end reproducibility gate.
func VerifyFleetLocal(ctx context.Context, sc *Scenario, fleetDigest string) error {
	return fleet.VerifyLocal(ctx, sc, fleetDigest)
}

// FleetSystemClock is the real-time FleetClock used outside tests.
func FleetSystemClock() FleetClock { return fleet.SystemClock() }

// ParseFleetEndpoints expands the CLIs' -fleet operand: a comma-separated
// endpoint list, or @file with one endpoint per line (blank lines and
// #-comments skipped). Endpoints naming the same daemon are an error.
func ParseFleetEndpoints(arg string) ([]string, error) { return fleet.ParseEndpoints(arg) }

// --- Live observability ---
//
// The observation tier: merge-as-you-go views of runs still in flight.
// Server exposes them as GET /v1/runs/{id}/live; FleetLiveSnapshot
// merges every daemon's views into one fleet-wide progress/occupancy
// picture; cmd/aqtctl -live and the cmd/aqtviz dashboard are the
// ready-made CLIs around them.

type (
	// LiveView is one run's live snapshot: cells done/total, the merged
	// metric summaries so far, cells/sec (×1000), and ETA — integers
	// throughout, strictly observational.
	LiveView = live.View
	// FleetLiveView is the fleet-wide merge of every daemon's in-flight
	// run views (cells summed, metric summaries merged).
	FleetLiveView = fleet.FleetLive
	// DaemonLiveView is one daemon's contribution to a FleetLiveView.
	DaemonLiveView = fleet.DaemonLive
)

// FleetLiveSnapshot polls every configured daemon's run list and /live
// views and merges them into one fleet-wide snapshot. Unreachable
// daemons are recorded in the snapshot, not fatal.
func FleetLiveSnapshot(ctx context.Context, cfg FleetConfig) (*FleetLiveView, error) {
	return fleet.LiveSnapshot(ctx, cfg)
}

// FleetLiveWatch polls FleetLiveSnapshot every interval, invoking fn
// with each snapshot, until fn returns false or ctx is cancelled.
// Pacing flows through cfg.Clock.
func FleetLiveWatch(ctx context.Context, cfg FleetConfig, interval time.Duration, fn func(*FleetLiveView) bool) error {
	return fleet.LiveWatch(ctx, cfg, interval, fn)
}

// PartitionSweepCells splits the index space [0, total) into at most
// shards contiguous ranges covering it exactly, sizes within one of each
// other — the fleet's initial shard plan.
func PartitionSweepCells(total, shards int) []CellIndexRange {
	return harness.PartitionCells(total, shards)
}

// PartitionSweepCellsWeighted splits the index space [0, len(weights))
// into at most shards contiguous ranges balanced by total weight rather
// than cell count (weights are clamped to ≥ 1). The fleet uses it with
// Scenario.CellWeights so a shard of large-topology cells does not
// become the whole run's critical path.
func PartitionSweepCellsWeighted(weights []int, shards int) []CellIndexRange {
	return harness.PartitionCellsWeighted(weights, shards)
}

// --- Persistent results (the on-disk store) ---
//
// A ResultStore is a content-addressed, append-only on-disk set of sweep
// cell records keyed by scenario digest: each record is written exactly
// once as a checksummed NDJSON line, a manifest tracks the covered index
// ranges, and torn or bit-flipped tails are detected and truncated on
// open. It is the durability layer behind fleet checkpoint/resume
// (FleetConfig.Store, aqtctl -store/-resume: every record a daemon
// delivers is committed on arrival, so a broken run resumes from all of
// them), corpus checkpointing (aqtbench -store), and the daemon's
// restart-surviving cache (ServerConfig.CacheDir, aqtserve -cache-dir).

type (
	// ResultStore is one scenario's durable record set; open it with
	// OpenResultStore and Close it when done.
	ResultStore = store.Store
	// ResultStoreOptions tunes an open store (sync cadence).
	ResultStoreOptions = store.Options
	// SweepRecordsDigester computes SweepResultsDigest incrementally
	// from encoded records fed in ascending index order — O(1) memory
	// however large the grid.
	SweepRecordsDigester = harness.RecordsDigester
)

// OpenResultStore opens (creating or recovering) the record store for
// one scenario digest under root. span must be the scenario's full cell
// index range; reopening an entry with a different digest or span is an
// error, and any torn tail from a crashed writer is truncated away.
func OpenResultStore(root, scenarioDigest string, span CellIndexRange, opts ResultStoreOptions) (*ResultStore, error) {
	return store.Open(root, scenarioDigest, span, opts)
}

// RemoveResultStoreEntry deletes one scenario's store entry (no error if
// absent) — the recovery path for corrupt or stale entries.
func RemoveResultStoreEntry(root, scenarioDigest string) error {
	return store.Remove(root, scenarioDigest)
}

// StoreEntryDir returns the directory a scenario's store entry lives in
// under root (whether or not it exists yet).
func StoreEntryDir(root, scenarioDigest string) string {
	return store.EntryDir(root, scenarioDigest)
}

// NewSweepRecordsDigester returns an empty incremental digester.
func NewSweepRecordsDigester() *SweepRecordsDigester { return harness.NewRecordsDigester() }

// --- Component registry (extension hooks) ---
//
// Protocols, topologies, adversaries, greedy policies, and invariants
// live in a name-based registry with typed parameter schemas — the single
// source of truth the scenario layer and the CLIs resolve against.
// Downstream code can register additional components under new names and
// drive them from scenario files without touching this repository.

type (
	// RegistryTopology describes a registrable topology family.
	RegistryTopology = registry.Topology
	// RegistryProtocol describes a registrable forwarding protocol.
	RegistryProtocol = registry.Protocol
	// RegistryAdversary describes a registrable injection pattern.
	RegistryAdversary = registry.Adversary
	// RegistryPolicy describes a registrable greedy policy.
	RegistryPolicy = registry.Policy
	// RegistryInvariant describes a registrable per-round predicate.
	RegistryInvariant = registry.Invariant
	// RegistryParam declares one typed component parameter.
	RegistryParam = registry.Param
	// RegistrySchema is an ordered parameter declaration list.
	RegistrySchema = registry.Schema
	// RegistryParams holds resolved parameter values.
	RegistryParams = registry.Params
	// AdversaryContext carries the inputs an adversary constructor may
	// consume (topology, bound, seed, horizon).
	AdversaryContext = registry.AdversaryContext
	// PreparedAdversary is a self-hosting adversary's dictated topology,
	// bound, and horizon.
	PreparedAdversary = registry.Prepared
)

// RegisterProtocol registers a forwarding protocol under a new stable
// name, making it constructible from scenario files and the CLIs.
func RegisterProtocol(p RegistryProtocol) error { return registry.RegisterProtocol(p) }

// RegisterAdversary registers an injection pattern under a new stable
// name.
func RegisterAdversary(a RegistryAdversary) error { return registry.RegisterAdversary(a) }

// RegisterTopology registers a topology family under a new stable name.
func RegisterTopology(t RegistryTopology) error { return registry.RegisterTopology(t) }

// RegisterInvariant registers a named per-round predicate.
func RegisterInvariant(i RegistryInvariant) error { return registry.RegisterInvariant(i) }

// RegisteredProtocols enumerates the registered protocol names, sorted.
func RegisteredProtocols() []string { return registry.ProtocolNames() }

// RegisteredTopologies enumerates the registered topology names, sorted.
func RegisteredTopologies() []string { return registry.TopologyNames() }

// RegisteredAdversaries enumerates the registered adversary names,
// sorted.
func RegisteredAdversaries() []string { return registry.AdversaryNames() }

// RegisteredInvariants enumerates the registered invariant names, sorted.
func RegisteredInvariants() []string { return registry.InvariantNames() }

// --- Exact offline optimum (tiny instances) ---

// SolveOptimal computes the exact minimal achievable max buffer load for a
// fixed injection pattern on a small path instance.
func SolveOptimal(cfg opt.Config) (opt.Result, error) { return opt.Solve(cfg) }

// OptConfig configures SolveOptimal.
type OptConfig = opt.Config

// OptResult is SolveOptimal's report.
type OptResult = opt.Result

// --- Reproduction suite ---

// Experiments returns the full reproduction suite (F1, E1–E13).
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment ("E1" … "E13", "F1").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// BandwidthExperiment returns the E12 space-vs-bandwidth experiment with a
// custom link-bandwidth axis; the suite default is {1, 2, 4, 8}.
func BandwidthExperiment(bandwidths ...int) Experiment {
	return experiments.E12Bandwidth(bandwidths...)
}

// FaultsExperiment returns the E13 headroom-under-loss experiment with a
// custom drop-probability axis; the suite default is
// {0, 1/100, 1/20, 1/10, 1/4}.
func FaultsExperiment(dropProbs ...Rat) Experiment {
	return experiments.E13Faults(dropProbs...)
}

// RunAllExperiments executes the suite under ctx, writing tables to w; it
// reports whether every bound assertion held. Cancelling ctx aborts the
// suite between simulation rounds.
func RunAllExperiments(ctx context.Context, w io.Writer) (bool, error) {
	return experiments.RunAll(ctx, w, experiments.All())
}
