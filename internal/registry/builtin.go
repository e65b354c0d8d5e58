package registry

import (
	"fmt"
	"slices"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/local"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// This file registers the built-in catalog: every component the paper's
// reproduction uses, under the stable names scenario files and the CLIs
// share. Parameter names deliberately match the historical CLI flags
// (n, spine, legs, arms, len, height, ell, drain, d, src, dst, m), so a
// flag invocation and its scenario file read the same.

func init() {
	registerTopologies()
	registerProtocols()
	registerAdversaries()
	registerInvariants()
	registerMetrics()
	registerFaults()
}

func registerTopologies() {
	mustRegister(RegisterTopology(Topology{
		Name:   "path",
		Doc:    "the directed path 0 → 1 → … → n−1 (§2)",
		Params: Schema{{Name: "n", Kind: Int, Doc: "path length", Default: 64}},
		Build: func(p Params) (*network.Network, error) {
			return network.NewPath(p.Int("n"))
		},
	}))
	mustRegister(RegisterTopology(Topology{
		Name: "caterpillar",
		Doc:  "a spine path with legs leaves per spine node",
		Params: Schema{
			{Name: "spine", Kind: Int, Doc: "spine length", Default: 8},
			{Name: "legs", Kind: Int, Doc: "leaves per spine node", Default: 2},
		},
		Build: func(p Params) (*network.Network, error) {
			return network.CaterpillarTree(p.Int("spine"), p.Int("legs"))
		},
	}))
	mustRegister(RegisterTopology(Topology{
		Name:   "binary",
		Doc:    "a complete binary in-tree of the given height",
		Params: Schema{{Name: "height", Kind: Int, Doc: "tree height", Default: 4}},
		Build: func(p Params) (*network.Network, error) {
			return network.BinaryTree(p.Int("height"))
		},
	}))
	mustRegister(RegisterTopology(Topology{
		Name: "spider",
		Doc:  "arms directed paths of the given length merging into one root",
		Params: Schema{
			{Name: "arms", Kind: Int, Doc: "arm count", Default: 4},
			{Name: "len", Kind: Int, Doc: "arm length", Default: 4},
		},
		Build: func(p Params) (*network.Network, error) {
			return network.SpiderTree(p.Int("arms"), p.Int("len"))
		},
	}))
}

// paperModel reports whether a run meets the hypotheses every paper bound
// shares: rate ρ ≤ 1 on links of bandwidth 1.
func paperModel(nw *network.Network, b adversary.Bound) bool {
	bw, uniform := nw.UniformBandwidth()
	return uniform && bw == 1 && b.Rho.LessEq(rat.One)
}

func registerProtocols() {
	drain := Schema{{Name: "drain", Kind: Bool, Doc: "enable drain-when-idle", Default: false}}
	mustRegister(RegisterProtocol(Protocol{
		Name:   "pts",
		Doc:    "Peak-to-Sink (Algorithm 1): single destination, ≤ 2+σ",
		Params: drain,
		Build: func(p Params) (sim.Protocol, error) {
			if p.Bool("drain") {
				return core.NewPTS(core.WithDrain()), nil
			}
			return core.NewPTS(), nil
		},
		Note: "Proposition 3.1: max load ≤ 2+σ",
		Bound: func(_ Params, nw *network.Network, b adversary.Bound, _ []network.NodeID) (int, bool) {
			return 2 + b.Sigma, paperModel(nw, b)
		},
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name:   "ppts",
		Doc:    "Parallel Peak-to-Sink (Algorithm 2): d destinations, ≤ 1+d+σ",
		Params: drain,
		Build: func(p Params) (sim.Protocol, error) {
			if p.Bool("drain") {
				return core.NewPPTS(core.PPTSWithDrain()), nil
			}
			return core.NewPPTS(), nil
		},
		Note: "Proposition 3.2: max load ≤ 1+d+σ",
		Bound: func(_ Params, nw *network.Network, b adversary.Bound, dests []network.NodeID) (int, bool) {
			d := len(slices.Compact(slices.Sorted(slices.Values(dests))))
			return 1 + d + b.Sigma, d > 0 && paperModel(nw, b)
		},
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name:   "tree-pts",
		Doc:    "directed-tree PTS (Appendix B.2): ≤ 2+σ",
		Params: drain,
		Build: func(p Params) (sim.Protocol, error) {
			if p.Bool("drain") {
				return core.NewTreePTS(core.TreePTSWithDrain()), nil
			}
			return core.NewTreePTS(), nil
		},
		Note: "Proposition B.3: max load ≤ 2+σ",
		Bound: func(_ Params, nw *network.Network, b adversary.Bound, _ []network.NodeID) (int, bool) {
			return 2 + b.Sigma, paperModel(nw, b)
		},
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name: "tree-ppts",
		Doc:  "directed-tree PPTS (Proposition 3.5): ≤ 1+d′+σ",
		Build: func(Params) (sim.Protocol, error) {
			return core.NewTreePPTS(), nil
		},
		Note: "Proposition 3.5: max load ≤ 1+d′+σ",
		Bound: func(_ Params, nw *network.Network, b adversary.Bound, dests []network.NodeID) (int, bool) {
			return 1 + core.DestinationDepth(nw, dests) + b.Sigma, len(dests) > 0 && paperModel(nw, b)
		},
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name:   "hpts",
		Doc:    "Hierarchical Peak-to-Sink (Algorithms 3–5) on n = m^ℓ nodes",
		Params: Schema{{Name: "ell", Kind: Int, Doc: "hierarchy levels ℓ", Default: 2}},
		Build: func(p Params) (sim.Protocol, error) {
			return core.NewHPTS(p.Int("ell")), nil
		},
		Note: "Theorem 4.1: max load ≤ ℓ·n^(1/ℓ)+σ+1",
		Bound: func(p Params, nw *network.Network, b adversary.Bound, _ []network.NodeID) (int, bool) {
			ell := p.Int("ell")
			h, err := core.HierarchyFor(nw.Len(), ell)
			if err != nil || !paperModel(nw, b) || !b.Rho.MulInt(int64(ell)).LessEq(rat.One) {
				return 0, false
			}
			return core.HPTSSpaceBound(h, b.Sigma), true
		},
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name: "downhill",
		Doc:  "naive locality-1 rule: forward down the buffer gradient",
		Build: func(Params) (sim.Protocol, error) {
			return local.NewDownhill(), nil
		},
		Note: "naive local rule: Θ(n) staircase under full pressure (E10)",
	}))
	mustRegister(RegisterProtocol(Protocol{
		Name: "oddeven",
		Doc:  "parity-staggered downhill variant; sustains ρ ≤ 1/2",
		Build: func(Params) (sim.Protocol, error) {
			return local.NewOddEven(), nil
		},
		Note: "parity-staggered local rule: sustains ρ ≤ 1/2 (E10)",
	}))
	registerGreedy()
}

// registerGreedy registers the classical policies and one "greedy-<name>"
// protocol per policy, derived from the policy table — one loop, no
// switch.
func registerGreedy() {
	for _, pol := range []Policy{
		{Name: "fifo", Doc: "first in, first out", Policy: baseline.FIFO{}},
		{Name: "lifo", Doc: "last in, first out", Policy: baseline.LIFO{}},
		{Name: "lis", Doc: "longest in system", Policy: baseline.LIS{}},
		{Name: "sis", Doc: "shortest in system", Policy: baseline.SIS{}},
		{Name: "ntg", Doc: "nearest to go", Policy: baseline.NTG{}},
		{Name: "ftg", Doc: "farthest to go", Policy: baseline.FTG{}},
	} {
		mustRegister(RegisterPolicy(pol))
	}
	for _, name := range PolicyNames() {
		pol, err := LookupPolicy(name)
		mustRegister(err)
		p := pol.Policy
		mustRegister(RegisterProtocol(Protocol{
			Name: "greedy-" + pol.Name,
			Doc:  "work-conserving greedy baseline, " + pol.Doc,
			Build: func(Params) (sim.Protocol, error) {
				return baseline.NewGreedy(p), nil
			},
			Note: "greedy baseline (no space guarantee; see E7)",
		}))
	}
}

// destSchema is the destination-selection schema shared by the randomized
// multi-destination patterns: an explicit dests list wins; otherwise d
// spread-out destinations are derived from the topology.
var destSchema = Schema{
	{Name: "d", Kind: Int, Doc: "destination count when dests is omitted", Default: 4},
	{Name: "dests", Kind: Ints, Doc: "explicit destination nodes (overrides d)", Default: []int(nil)},
}

// resolveDests applies the destSchema convention.
func resolveDests(nw *network.Network, p Params) []network.NodeID {
	if ds := p.Ints("dests"); len(ds) > 0 {
		out := make([]network.NodeID, len(ds))
		for i, d := range ds {
			out[i] = network.NodeID(d)
		}
		return out
	}
	return SpreadDestinations(nw, p.Int("d"))
}

// SpreadDestinations picks d spread-out destinations: the last d nodes of
// a path, or (for trees) up to d ancestors ending at the root along the
// deepest leaf's route. It is the shared default destination set of the
// randomized multi-destination patterns.
func SpreadDestinations(nw *network.Network, d int) []network.NodeID {
	if nw.IsPath() {
		n := nw.Len()
		if d < 1 {
			d = 1
		}
		if d >= n {
			d = n - 1
		}
		out := make([]network.NodeID, d)
		for k := 0; k < d; k++ {
			out[k] = network.NodeID(n - d + k)
		}
		return out
	}
	deepest := nw.Leaves()[0]
	for _, l := range nw.Leaves() {
		if nw.Depth(l) > nw.Depth(deepest) {
			deepest = l
		}
	}
	var out []network.NodeID
	for v := nw.Next(deepest); v != network.None; v = nw.Next(v) {
		out = append(out, v)
	}
	if len(out) > d && d > 0 {
		out = out[len(out)-d:]
	}
	return out
}

func registerAdversaries() {
	mustRegister(RegisterAdversary(Adversary{
		Name:   "random",
		Doc:    "shaped random pattern, (ρ,σ)-bounded by construction",
		Params: destSchema,
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			return adversary.NewRandom(ctx.Net, ctx.Bound, resolveDests(ctx.Net, p), ctx.Seed)
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name:   "hotspot",
		Doc:    "adaptive pattern aiming every admissible injection at the fullest buffer",
		Params: destSchema,
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			return adversary.NewHotSpot(ctx.Net, ctx.Bound, resolveDests(ctx.Net, p), ctx.Seed)
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name: "stream",
		Doc:  "smooth rate-ρ single-route stream src → dst",
		Params: Schema{
			{Name: "src", Kind: Int, Doc: "source node", Default: 0},
			{Name: "dst", Kind: Int, Doc: "destination node; −1 means the first sink", Default: -1},
		},
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			dst := network.NodeID(p.Int("dst"))
			if dst < 0 {
				dst = ctx.Net.Sinks()[0]
			}
			return adversary.NewStream(ctx.Bound, network.NodeID(p.Int("src")), dst), nil
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name: "roundrobin",
		Doc:  "smooth aggregate rate-ρ flow from src cycling the destinations",
		Params: append(Schema{
			{Name: "src", Kind: Int, Doc: "source node", Default: 0},
		}, destSchema...),
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			return adversary.NewRoundRobin(ctx.Bound, network.NodeID(p.Int("src")), resolveDests(ctx.Net, p)), nil
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name: "burst",
		Doc:  "crafted near-tight burst for Propositions 3.1/3.2/3.5",
		Params: Schema{{Name: "d", Kind: Int, Default: 1,
			Doc: "destination count: ≤ 1 targets the sink (PTS, tree PTS); on a path d ≥ 2 targets d nodes, on a tree the last d nodes of the deepest leaf's route"}},
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			d := p.Int("d")
			switch {
			case ctx.Net.IsPath() && d <= 1:
				return adversary.PTSBurst(ctx.Net, ctx.Bound, ctx.Rounds)
			case ctx.Net.IsPath():
				return adversary.PPTSBurst(ctx.Net, ctx.Bound, d, ctx.Rounds)
			case d <= 1:
				return adversary.TreeBurst(ctx.Net, ctx.Bound, nil, ctx.Rounds)
			default:
				return adversary.TreeBurst(ctx.Net, ctx.Bound, SpreadDestinations(ctx.Net, d), ctx.Rounds)
			}
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name:   "greedykiller",
		Doc:    "multi-destination stress pattern of §1/[17]",
		Params: Schema{{Name: "d", Kind: Int, Doc: "destination count", Default: 4}},
		Build: func(ctx AdversaryContext, p Params) (adversary.Adversary, error) {
			return adversary.GreedyKiller(ctx.Net, ctx.Bound, p.Int("d"), ctx.Rounds)
		},
	}))
	mustRegister(RegisterAdversary(Adversary{
		Name: "lowerbound",
		Doc:  "the Section 5 construction; dictates its own topology, bound, and horizon",
		Params: Schema{
			{Name: "m", Kind: Int, Doc: "base m (phase length)", Default: 4},
			{Name: "ell", Kind: Int, Doc: "hierarchy depth ℓ", Default: 2},
		},
		Prepare: func(bound adversary.Bound, p Params) (*Prepared, error) {
			lb, err := lowerbound.New(p.Int("m"), p.Int("ell"), bound.Rho)
			if err != nil {
				return nil, err
			}
			nw, err := lb.Network()
			if err != nil {
				return nil, err
			}
			return &Prepared{
				Net:       nw,
				Adversary: lb,
				Bound:     lb.Bound(), // (ρ,1)-bounded regardless of the declared σ
				Rounds:    lb.Rounds(),
				Note:      fmt.Sprintf("Theorem 5.1 floor: max load ≥ ~%v", lb.PredictedBound()),
			}, nil
		},
	}))
}

func registerInvariants() {
	mustRegister(RegisterInvariant(Invariant{
		Name:   "max-load",
		Doc:    "every buffer stays at or below the given packet count",
		Params: Schema{{Name: "bound", Kind: Int, Doc: "maximum allowed buffer occupancy", Required: true}},
		Build: func(nw *network.Network, p Params) (sim.Invariant, error) {
			return core.MaxLoadInvariant(nw, p.Int("bound")), nil
		},
	}))
}

// seriesSchema is the bound shared by the series-producing collectors:
// cap downsampled points (stride-doubled over the whole run) plus an
// exact tail of the most recent rounds. Both are capped at
// maxSeriesParam — these params size allocations and scenarios arrive
// over the network (aqtserve), so an unbounded value would let one POST
// exhaust the daemon's memory.
const maxSeriesParam = 1 << 16

var seriesSchema = Schema{
	{Name: "cap", Kind: Int, Doc: "maximum downsampled points retained, ≤ 65536 (memory stays O(cap) at any horizon)", Default: 512},
	{Name: "tail", Kind: Int, Doc: "exact per-round tail length, ≤ 65536 (0 disables the tail)", Default: 64},
}

// seriesParams validates the shared series bounds.
func seriesParams(p Params) (capPoints, tail int, err error) {
	capPoints, tail = p.Int("cap"), p.Int("tail")
	if capPoints > maxSeriesParam || tail > maxSeriesParam {
		return 0, 0, fmt.Errorf("series cap/tail %d/%d exceed the %d limit", capPoints, tail, maxSeriesParam)
	}
	return capPoints, tail, nil
}

// windowSchema is the exact-window bound shared by the windowed
// collectors. Like cap/tail it sizes an allocation from
// network-supplied input, so it is capped at the same 2¹⁶ limit.
var windowSchema = Schema{
	{Name: "window", Kind: Int, Doc: "exact window length in rounds, 1..65536", Default: 64},
}

// windowParam validates the shared window bound.
func windowParam(p Params) (int, error) {
	win := p.Int("window")
	if win < 1 || win > maxSeriesParam {
		return 0, fmt.Errorf("window %d outside 1..%d", win, maxSeriesParam)
	}
	return win, nil
}

// optionalWindowSchema is the opt-in variant for collectors whose
// primary payload predates the windowed family: window defaults to 0
// (off), keeping the unwindowed summary — and every pinned corpus
// digest that selects these collectors — byte-identical.
var optionalWindowSchema = Schema{
	{Name: "window", Kind: Int, Doc: "exact recent-history window in rounds, 0..65536 (0 disables the window scalars)", Default: 0},
	{Name: "decay", Kind: Int, Doc: "per-round retention of the beyond-window decayed max, in permille 0..1000", Default: 990},
}

// optionalWindowParams validates the opt-in window bounds (window may
// be 0 = off, unlike windowParam).
func optionalWindowParams(p Params) (win, decay int, err error) {
	win = p.Int("window")
	if win < 0 || win > maxSeriesParam {
		return 0, 0, fmt.Errorf("window %d outside 0..%d", win, maxSeriesParam)
	}
	decay = p.Int("decay")
	if decay < 0 || decay > 1000 {
		return 0, 0, fmt.Errorf("decay %d outside the permille range 0..1000", decay)
	}
	return win, decay, nil
}

func registerMetrics() {
	mustRegister(RegisterMetric(Metric{
		Name: metrics.NameMaxLoad,
		Doc:  "the historical headline scalars: maximum visible/physical occupancy and its first node/round",
		Build: func(Params, int) (metrics.Collector, error) {
			return metrics.NewMaxLoad(), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameLoadSeries,
		Doc:    "per-round max/total occupancy as a bounded series (stride-doubling + exact tail)",
		Params: seriesSchema,
		Build: func(p Params, rounds int) (metrics.Collector, error) {
			capPoints, tail, err := seriesParams(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewLoadSeries(capPoints, tail, rounds), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name: metrics.NameLoadHist,
		Doc:  "occupancy distribution over all nodes and rounds at L_t (exact low buckets + log2 tail)",
		Build: func(Params, int) (metrics.Collector, error) {
			return metrics.NewLoadHist(), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameLatency,
		Doc:    "delivery-latency distribution with p50/p90/p99/max; optional exact recent-latency window",
		Params: optionalWindowSchema,
		Build: func(p Params, _ int) (metrics.Collector, error) {
			win, decay, err := optionalWindowParams(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewLatencyWindowed(win, decay), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameLinkUtilSeries,
		Doc:    "packets forwarded per round as a bounded series, plus the busiest link by utilization; optional exact recent-forwards window",
		Params: append(append(Schema{}, seriesSchema...), optionalWindowSchema...),
		Build: func(p Params, rounds int) (metrics.Collector, error) {
			capPoints, tail, err := seriesParams(p)
			if err != nil {
				return nil, err
			}
			win, decay, err := optionalWindowParams(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewLinkUtilSeriesWindowed(capPoints, tail, win, decay, rounds), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameDropRate,
		Doc:    "packets lost in transit by the fault model: totals, drop permille, per-round drop series",
		Params: seriesSchema,
		Build: func(p Params, rounds int) (metrics.Collector, error) {
			capPoints, tail, err := seriesParams(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewDropRate(capPoints, tail, rounds), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameGoodput,
		Doc:    "delivered-versus-injected flow: exact totals, goodput permille, per-round bounded series of both",
		Params: seriesSchema,
		Build: func(p Params, rounds int) (metrics.Collector, error) {
			capPoints, tail, err := seriesParams(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewGoodput(capPoints, tail, rounds), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name: metrics.NameDelivery,
		Doc:  "the packet ledger: delivered/dropped/in-flight counts that always sum to injected",
		Build: func(Params, int) (metrics.Collector, error) {
			return metrics.NewDelivery(), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name: metrics.NameWindowLoad,
		Doc:  "recent occupancy: exact last-N-round max/mean/p99 plus an exponentially decayed max of older rounds",
		Params: append(append(Schema{}, windowSchema...), Param{
			Name: "decay", Kind: Int,
			Doc:     "per-round retention of the beyond-window decayed tail, in permille 0..1000",
			Default: 990,
		}),
		Build: func(p Params, _ int) (metrics.Collector, error) {
			win, err := windowParam(p)
			if err != nil {
				return nil, err
			}
			decay := p.Int("decay")
			if decay < 0 || decay > 1000 {
				return nil, fmt.Errorf("decay %d outside the permille range 0..1000", decay)
			}
			return metrics.NewWindowLoad(win, decay), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name:   metrics.NameGoodputWindow,
		Doc:    "recent delivered-versus-injected flow: exact last-N-round counts and windowed goodput/drop permille",
		Params: windowSchema,
		Build: func(p Params, _ int) (metrics.Collector, error) {
			win, err := windowParam(p)
			if err != nil {
				return nil, err
			}
			return metrics.NewGoodputWindow(win), nil
		},
	}))
	mustRegister(RegisterMetric(Metric{
		Name: metrics.NameInjectionConcentration,
		Doc:  "adversary spatial profile via the OnInject hook: distinct sources and the hottest source's share",
		Build: func(Params, int) (metrics.Collector, error) {
			return metrics.NewInjectionConcentration(), nil
		},
	}))
}

// registerFaults registers the fault-injection models. Every parameter is
// bounded at build time — probabilities are exact rationals validated into
// [0, 1] and window lengths are capped at faults.MaxWindow (the same 2¹⁶
// limit as the series params) — because fault specs arrive over the
// network through aqtserve's POST /v1/runs.
func registerFaults() {
	mustRegister(RegisterFault(Fault{
		Name:   faults.DropName,
		Doc:    "each forwarded packet is lost in transit i.i.d. with probability p",
		Params: Schema{{Name: "p", Kind: RatKind, Doc: "drop probability in [0,1], e.g. \"1/20\"", Required: true}},
		Build: func(p Params) (faults.Model, error) {
			return faults.NewDrop(p.Rat("p"))
		},
	}))
	mustRegister(RegisterFault(Fault{
		Name: faults.LinkFlapName,
		Doc:  "transient link outages: per (link, window) a seeded coin p downs the link for the first `down` rounds of the window",
		Params: Schema{
			{Name: "p", Kind: RatKind, Doc: "per-window outage probability in [0,1]", Required: true},
			{Name: "period", Kind: Int, Doc: "window length in rounds, 1..65536", Default: 32},
			{Name: "down", Kind: Int, Doc: "outage length in rounds, 0..period", Default: 8},
		},
		Build: func(p Params) (faults.Model, error) {
			return faults.NewLinkFlap(p.Rat("p"), p.Int("period"), p.Int("down"))
		},
	}))
	mustRegister(RegisterFault(Fault{
		Name: faults.NodeCrashName,
		Doc:  "one node forwards nothing during rounds [at, at+for)",
		Params: Schema{
			{Name: "node", Kind: Int, Doc: "the crashing node", Required: true},
			{Name: "at", Kind: Int, Doc: "first silent round", Default: 0},
			{Name: "for", Kind: Int, Doc: "outage length in rounds, 0..65536", Default: 64},
		},
		Build: func(p Params) (faults.Model, error) {
			return faults.NewNodeCrash(network.NodeID(p.Int("node")), p.Int("at"), p.Int("for"))
		},
	}))
}
