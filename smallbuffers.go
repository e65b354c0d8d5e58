// Package smallbuffers is a simulation library and reproduction of
// "With Great Speed Come Small Buffers: Space-Bandwidth Tradeoffs for
// Routing" (Miller, Patt-Shamir, Rosenbaum; PODC 2019).
//
// This package is the API that the programs under cmd/ and examples/
// use, and nothing more; the internal packages hold the model:
//
//   - the adversarial-queuing model of the paper: synchronous store-and-
//     forward rounds on directed paths and in-trees, with (ρ,σ)-bounded
//     packet injections (Definition 2.1) and capacitated links — every
//     link has a bandwidth B ≥ 1 (the paper's unit capacity is the
//     default; WithUniformBandwidth configures more), the engine enforces
//     "at most B(v) packets leave v per round", and demand rates ρ are
//     admissible up to the bottleneck bandwidth;
//   - the paper's forwarding algorithms: PTS (Alg. 1, ≤ 2+σ), PPTS
//     (Alg. 2, ≤ 1+d+σ), their directed-tree variants (App. B.2), and the
//     hierarchical HPTS (Algs. 3–5, ≤ ℓ·n^(1/ℓ)+σ+1 at rate ρ ≤ 1/ℓ);
//   - the Section 5 lower-bound adversary forcing Ω(((ℓ+1)ρ−1)/2ℓ·n^(1/ℓ))
//     space against every protocol, with the fresh/stale accounting of
//     Lemmas 5.2–5.4 as an executable tracker;
//   - classical greedy baselines, locality-1 protocols, shaped random and
//     crafted worst-case adversaries, metric collectors and deterministic
//     fault models;
//   - an experiment harness regenerating every theorem and figure of the
//     paper (see EXPERIMENTS.md), plus tracing and ASCII visualization;
//   - a declarative scenario layer: workloads as JSON files resolved
//     against a name-based component registry (LoadScenarioFile,
//     Scenario.Run; see testdata/scenarios/ and the "Scenario files"
//     section of README.md), served by cmd/aqtserve and distributed by
//     cmd/aqtctl.
//
// Every registered protocol, topology, adversary, metric collector and
// fault model is reachable by name through scenario files and the CLIs,
// whether or not this package exports a constructor for it.
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
// rounds) and executes it on a bounded worker pool, handing each cell's
// seed to its adversary verbatim, streaming per-cell results and
// aggregating summaries:
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
	"embed"
	"io"
	"io/fs"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/experiments"
	"smallbuffers/internal/fleet"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/scenario"
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
	// Adversary produces each round's injections.
	Adversary = adversary.Adversary
	// Protocol is a centralized online forwarding algorithm.
	Protocol = sim.Protocol
	// Spec describes one simulation run for the context-aware API; build
	// it with NewSpec and the With* options.
	Spec = sim.Spec
	// RunOption customizes a Spec (WithObservers, WithInvariants).
	RunOption = sim.Option
	// Result summarizes a run.
	Result = sim.Result
	// Sweep is a declarative cartesian grid of runs executed on a bounded
	// worker pool (Tier 2 of the execution API).
	Sweep = harness.Sweep
	// SweepProtocol is one point on a sweep's protocol axis.
	SweepProtocol = harness.ProtocolSpec
	// SweepTopology is one point on a sweep's topology axis.
	SweepTopology = harness.TopologySpec
	// SweepAdversary is one point on a sweep's adversary axis.
	SweepAdversary = harness.AdversarySpec
	// Observer receives a run's round events; metric collectors are
	// Observers too, and the engine drives both through one hook list.
	Observer = metrics.Observer
	// Invariant is a per-round predicate checked by the engine after
	// every hook's OnRoundEnd.
	Invariant = sim.Invariant
	// Hierarchy is the base-m partition HPTS runs on (§4.1).
	Hierarchy = core.Hierarchy
	// Experiment is one unit of the reproduction suite.
	Experiment = experiments.Experiment
	// GreedyPolicy ranks packets within a buffer for greedy baselines.
	GreedyPolicy = baseline.Policy
	// LowerBoundAdversary is the Section 5 construction.
	LowerBoundAdversary = lowerbound.Adversary
	// StalenessTracker replays the Section 5 fresh/stale accounting.
	StalenessTracker = lowerbound.StalenessTracker
	// TraceRecorder captures events and occupancy matrices.
	TraceRecorder = trace.Recorder
)

// NewRat returns the exact rational p/q (panics if q = 0).
func NewRat(p, q int64) Rat { return rat.New(p, q) }

// --- Topologies ---

// NetworkOption configures a topology under construction; today's options
// set link bandwidths (WithUniformBandwidth).
type NetworkOption = network.Option

// WithUniformBandwidth sets every link's bandwidth to b ≥ 1. The paper's
// unit-capacity model is b = 1, the default.
func WithUniformBandwidth(b int) NetworkOption { return network.WithUniformBandwidth(b) }

// NewPath returns the directed path 0 → 1 → … → n−1.
func NewPath(n int, opts ...NetworkOption) (*Network, error) { return network.NewPath(n, opts...) }

// SpiderTree returns `arms` directed paths merging into one root.
func SpiderTree(arms, length int, opts ...NetworkOption) (*Network, error) {
	return network.SpiderTree(arms, length, opts...)
}

// --- Protocols (the paper's algorithms) ---

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
	LIS  GreedyPolicy = baseline.LIS{}
	NTG  GreedyPolicy = baseline.NTG{}
	FTG  GreedyPolicy = baseline.FTG{}
)

// --- Adversaries ---

// NewRandomAdversary returns a randomized pattern that is (ρ,σ)-bounded by
// construction, injecting toward dests (the sinks if nil), deterministic in
// seed.
func NewRandomAdversary(nw *Network, bound Bound, dests []NodeID, seed int64) (Adversary, error) {
	return adversary.NewRandom(nw, bound, dests, seed)
}

// PPTSBurstAdversary is the crafted near-tight pattern for Proposition 3.2.
func PPTSBurstAdversary(nw *Network, bound Bound, d, horizon int) (Adversary, error) {
	return adversary.PPTSBurst(nw, bound, d, horizon)
}

// TreeBurstAdversary is the crafted pattern for Proposition 3.5.
func TreeBurstAdversary(nw *Network, bound Bound, dests []NodeID, horizon int) (Adversary, error) {
	return adversary.TreeBurst(nw, bound, dests, horizon)
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

// --- Execution (Tier 1: one run) ---

// NewSpec assembles a run description: execute protocol p against
// adversary adv on nw for the given number of rounds. Options attach
// observers and invariants.
func NewSpec(nw *Network, p Protocol, adv Adversary, rounds int, opts ...RunOption) Spec {
	return sim.NewSpec(nw, p, adv, rounds, opts...)
}

// WithObservers registers observers that receive the run's events.
func WithObservers(obs ...Observer) RunOption { return sim.WithObservers(obs...) }

// WithInvariants registers per-round predicates; a violation aborts the
// run.
func WithInvariants(invs ...Invariant) RunOption { return sim.WithInvariants(invs...) }

// RunContext executes one simulation under ctx. Cancellation is honored
// between rounds; on cancellation the partial Result is returned together
// with the context's error.
func RunContext(ctx context.Context, spec Spec) (Result, error) { return sim.Run(ctx, spec) }

// --- Execution (Tier 2: sweeps) ---

// NewSweepProtocol wraps a protocol constructor as a sweep axis entry;
// every cell gets a fresh instance.
func NewSweepProtocol(name string, mk func() Protocol) SweepProtocol {
	return harness.Protocol(name, mk)
}

// SweepPath is the path-topology axis entry on n nodes.
func SweepPath(n int) SweepTopology { return harness.Path(n) }

// SweepRandomAdversary is the adversary axis entry for the shaped random
// pattern injecting toward dests (the sinks if nil); each cell's adversary
// gets the cell's seed.
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

// RenderSeries draws an arbitrary integer series (e.g. a metric series'
// Values) as a labeled unicode sparkline.
func RenderSeries(w io.Writer, label string, series []int, width int) error {
	return trace.RenderSeries(w, label, series, width)
}

// --- Metrics (measurement as data) ---
//
// A metric collector observes a run through typed hooks and distills it
// into a MetricSummary — an integer-only, deterministic record that rides
// Result.Metrics, sweep cell records, the service tier's streams, and
// result digests. Collectors are selected by registry name (the scenario
// "metrics" axis, aqtsim -metrics).

type (
	// MetricSummary is a collector's canonical integer-only output:
	// named scalars, bounded series, and histograms.
	MetricSummary = metrics.Summary
	// HistBar is one labeled count of an ASCII histogram rendering.
	HistBar = stats.HistBar
)

// MergeMetricSummaries aggregates same-shaped summary maps from several
// runs: histograms merge bucket-wise with re-derived quantiles, scalars
// merge by maximum, series drop (no canonical cross-run alignment).
func MergeMetricSummaries(runs []map[string]MetricSummary) (map[string]MetricSummary, error) {
	return metrics.MergeAll(runs)
}

// RenderHistogram draws labeled counts as fixed-width ASCII bars (see
// the histogram record's Bars for histogram summaries).
func RenderHistogram(w io.Writer, title string, bars []HistBar, width int) error {
	return stats.Histogram(w, title, bars, width)
}

// --- Scenarios (workloads as data) ---
//
// A Scenario is a serializable description of a workload: topology,
// protocol, adversary, (ρ,σ) bound, horizon, bandwidths, seeds, metrics,
// faults and invariant set, each axis a single point or a list. Scenarios
// marshal to and from JSON, validate against the component registry, and
// lift to a Sweep over their axes (a one-point scenario is a one-cell
// sweep) — so reproducing an experiment means running a file (see
// testdata/scenarios/), not editing a program. cmd/aqtsim and
// cmd/aqtbench consume them via -scenario and -scenarios.

type (
	// Scenario is a declarative, serializable workload description; run it
	// with Scenario.Run, serialize with Scenario.Marshal, or lift it with
	// Scenario.Sweep to attach observers. Its content address is
	// Scenario.Digest() — SHA-256 of the canonical Marshal form, stable
	// across every JSON spelling of the same workload — the key the
	// service tier's result cache memoizes on.
	Scenario = scenario.Scenario
	// ScenarioFlags bridges a flag-style flat parameter namespace to a
	// one-point scenario (the CLIs' scenario constructor).
	ScenarioFlags = scenario.Flags
)

// LoadScenarioFile decodes and validates the scenario file at path ("-"
// reads standard input).
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// ParseScenario decodes and validates a scenario from JSON bytes.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ScenarioFromFlags assembles and validates a one-point scenario from a
// flat flag namespace; each component keeps the parameters its registry
// schema declares.
func ScenarioFromFlags(f ScenarioFlags) (*Scenario, error) { return scenario.FromFlags(f) }

// --- Distributed sweeps (fleet coordination) ---
//
// The fleet tier splits one scenario's sweep grid into deterministic
// index-range shards, dispatches them across a fleet of aqtserve daemons,
// and merges the streamed cells back into exactly the record set — and
// results digest — of a local run. cmd/aqtctl is the ready-made CLI
// around it.

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
	// CellIndexRange is a half-open range of global sweep cell indices —
	// the fleet's unit of work.
	CellIndexRange = harness.IndexRange
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

// ParseFleetEndpoints expands the CLIs' -fleet operand: a comma-separated
// endpoint list, or @file with one endpoint per line (blank lines and
// #-comments skipped). Endpoints naming the same daemon are an error.
func ParseFleetEndpoints(arg string) ([]string, error) { return fleet.ParseEndpoints(arg) }

// --- Live observability ---
//
// The observation tier: merge-as-you-go views of runs still in flight.
// An aqtserve daemon exposes them as GET /v1/runs/{id}/live;
// FleetLiveSnapshot merges every daemon's views into one fleet-wide
// progress/occupancy picture; cmd/aqtctl -live and the cmd/aqtviz
// dashboard are the ready-made CLIs around them.

// FleetLiveView is the fleet-wide merge of every daemon's in-flight run
// views (cells summed, metric summaries merged).
type FleetLiveView = fleet.FleetLive

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
// restart-surviving cache (aqtserve -cache-dir).

type (
	// ResultStore is one scenario's durable record set; open it with
	// OpenResultStore and Close it when done.
	ResultStore = store.Store
	// ResultStoreOptions tunes an open store (sync cadence).
	ResultStoreOptions = store.Options
)

// OpenResultStore opens (creating or recovering) the record store for
// one scenario digest under root. span must be the scenario's full cell
// index range; reopening an entry with a different digest or span is an
// error, and any torn tail from a crashed writer is truncated away.
func OpenResultStore(root, scenarioDigest string, span CellIndexRange, opts ResultStoreOptions) (*ResultStore, error) {
	return store.Open(root, scenarioDigest, span, opts)
}

// StoreEntryDir returns the directory a scenario's store entry lives in
// under root (whether or not it exists yet).
func StoreEntryDir(root, scenarioDigest string) string {
	return store.EntryDir(root, scenarioDigest)
}

// --- Reproduction suite ---

// experimentFiles holds the scenario files of E1–E4, E7 and E12, built
// into the binary so the suite runs from any directory.
//
//go:embed testdata/experiments/*.json
var experimentFiles embed.FS

// Experiments returns the full reproduction suite (F1, E1–E13).
func Experiments() []Experiment {
	files, err := fs.Sub(experimentFiles, "testdata/experiments")
	if err != nil {
		panic(err) // the directory is embedded above
	}
	return experiments.All(files)
}
