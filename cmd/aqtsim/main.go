// Command aqtsim runs adversarial-queuing simulations: a topology, a
// forwarding protocol, and a (ρ,σ)-bounded adversary, reporting the maximum
// buffer occupancy against the paper's bound.
//
// Workloads are scenarios — named components from the registry plus a
// bound, horizon, bandwidths, and seeds — and can come from flags or from
// a JSON file (see testdata/scenarios/):
//
//	aqtsim -n 64 -protocol ppts -adversary random -rho 1 -sigma 2 -d 8 -rounds 2000
//	aqtsim -scenario testdata/scenarios/lowerbound.json
//	aqtsim -scenario -                  # read the scenario from stdin
//	aqtsim -protocol pts -adversary burst -dump-scenario   # print flags as JSON
//	aqtsim -scenario e1.json -digest           # canonical scenario digest
//	aqtsim -scenario e1.json -result-digest    # digest of the run's results
//
// A scenario whose axes are lists (e.g. "seeds": [1,2,3]) runs as a
// parallel sweep and reports one row per cell. Flags describe one run:
//
//	aqtsim -n 64 -protocol pts -d 1 -bandwidth 4 -adversary random -rho 2 -sigma 3
//	aqtsim -n 256 -protocol hpts -ell 2 -adversary random -rho 1/2 -rounds 4000 -heatmap
//	aqtsim -protocol ppts -adversary lowerbound -m 8 -ell 2 -rho 3/4
//	aqtsim -topology spider -arms 4 -len 4 -protocol tree-ppts -adversary random -rho 1 -sigma 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	sb "smallbuffers"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aqtsim:", err)
		os.Exit(1)
	}
}

type options struct {
	scenario     string
	dumpScenario bool
	digest       bool
	resultDigest bool

	topology  string
	n         int
	spine     int
	legs      int
	arms      int
	armLen    int
	height    int
	bandwidth int

	protocol string
	ell      int
	drain    bool

	adversary string
	rho       string
	sigma     int
	d         int
	seed      int64
	m         int

	fault    string
	faultP   string
	period   int
	down     int
	node     int
	at       int
	faultFor int

	rounds  int
	verify  bool
	heatmap bool
	json    bool
	metrics string
}

func run(ctx context.Context, args []string, w io.Writer) error {
	var o options
	fs := flag.NewFlagSet("aqtsim", flag.ContinueOnError)
	fs.StringVar(&o.scenario, "scenario", "", "run a scenario file instead of flags (\"-\" reads stdin)")
	fs.BoolVar(&o.dumpScenario, "dump-scenario", false, "print the scenario as canonical JSON and exit")
	fs.BoolVar(&o.digest, "digest", false, "print the scenario's canonical digest (sha256:…) and exit")
	fs.BoolVar(&o.resultDigest, "result-digest", false, "run and print only the results digest (sha256:… over the per-cell records)")
	fs.StringVar(&o.topology, "topology", "path", "registered topology name (see -dump-scenario)")
	fs.IntVar(&o.n, "n", 64, "path length (path topology)")
	fs.IntVar(&o.spine, "spine", 8, "caterpillar spine length")
	fs.IntVar(&o.legs, "legs", 2, "caterpillar legs per spine node")
	fs.IntVar(&o.arms, "arms", 4, "spider arm count")
	fs.IntVar(&o.armLen, "len", 4, "spider arm length")
	fs.IntVar(&o.height, "height", 4, "binary tree height")
	fs.IntVar(&o.bandwidth, "bandwidth", 1, "uniform link bandwidth B ≥ 1 (packets per link per round)")
	fs.StringVar(&o.protocol, "protocol", "ppts", "registered protocol name")
	fs.IntVar(&o.ell, "ell", 2, "HPTS levels ℓ (and lowerbound ℓ)")
	fs.BoolVar(&o.drain, "drain", false, "enable drain-when-idle (pts/ppts/tree-pts)")
	fs.StringVar(&o.adversary, "adversary", "random", "registered adversary name")
	fs.StringVar(&o.rho, "rho", "1", "injection rate ρ (rational, e.g. 1/2)")
	fs.IntVar(&o.sigma, "sigma", 2, "burst σ")
	fs.IntVar(&o.d, "d", 4, "destination count (random/burst/greedykiller)")
	fs.Int64Var(&o.seed, "seed", 1, "random adversary seed")
	fs.IntVar(&o.m, "m", 4, "lowerbound base m")
	fs.StringVar(&o.fault, "fault", "", "registered fault model (drop, link_flap, node_crash); empty runs loss-free")
	fs.StringVar(&o.faultP, "p", "1/100", "fault probability (rational in [0,1]; drop/link_flap)")
	fs.IntVar(&o.period, "period", 32, "link_flap window length in rounds")
	fs.IntVar(&o.down, "down", 8, "link_flap downed rounds per window")
	fs.IntVar(&o.node, "node", 0, "node_crash victim node")
	fs.IntVar(&o.at, "at", 0, "node_crash start round")
	fs.IntVar(&o.faultFor, "for", 64, "node_crash outage length in rounds")
	fs.IntVar(&o.rounds, "rounds", 2000, "rounds to simulate (lowerbound: pattern length)")
	fs.BoolVar(&o.verify, "verify", true, "re-check the adversary against its declared (ρ,σ) bound")
	fs.StringVar(&o.metrics, "metrics", "", "comma-separated metric collectors (e.g. load_series,load_hist,latency); stats tables print after the run")
	fs.BoolVar(&o.heatmap, "heatmap", false, "render an occupancy heatmap (single runs)")
	fs.BoolVar(&o.json, "json", false, "dump the trace as JSON instead of text output (single runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.scenario != "" {
		// Workload flags would be silently overridden by the file; reject
		// the combination instead of running something the user did not ask
		// for. Output flags (-json, -heatmap, -dump-scenario) still apply.
		outputFlags := map[string]bool{"scenario": true, "dump-scenario": true, "json": true, "heatmap": true, "digest": true, "result-digest": true}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if !outputFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-scenario runs the file's workload; drop the conflicting %s", strings.Join(conflict, ", "))
		}
	}

	sc, err := buildScenario(o)
	if err != nil {
		return err
	}
	if o.digest {
		d, err := sc.Digest()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, d)
		return err
	}
	if o.dumpScenario {
		data, err := sc.Marshal()
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	if o.resultDigest {
		// Every scenario runs as a sweep (a one-point scenario is a
		// one-cell sweep), so local digests compare 1:1 with the aqtserve
		// response for the same scenario file.
		agg, err := sc.Run(ctx)
		if agg == nil {
			return err
		}
		if _, perr := fmt.Fprintln(w, agg.Digest()); perr != nil {
			return perr
		}
		return err
	}
	if sc.IsSingle() {
		return runSingle(ctx, o, sc, w)
	}
	if o.json || o.heatmap {
		return fmt.Errorf("-json and -heatmap need a one-point scenario; %q is a sweep grid", o.scenario)
	}
	return runSweep(ctx, sc, w)
}

// buildScenario resolves the workload: a scenario file when -scenario is
// set, otherwise the flags assembled through the registry (the scenario
// constructor — no per-component switches live here).
func buildScenario(o options) (*sb.Scenario, error) {
	if o.scenario != "" {
		return sb.LoadScenarioFile(o.scenario)
	}
	var metricNames []string
	for _, name := range strings.Split(o.metrics, ",") {
		if name = strings.TrimSpace(name); name != "" {
			metricNames = append(metricNames, name)
		}
	}
	return sb.ScenarioFromFlags(sb.ScenarioFlags{
		Topology:  o.topology,
		Protocol:  o.protocol,
		Adversary: o.adversary,
		Params: map[string]any{
			"n": o.n, "spine": o.spine, "legs": o.legs, "arms": o.arms,
			"len": o.armLen, "height": o.height,
			"ell": o.ell, "drain": o.drain,
			"d": o.d, "m": o.m,
			"p": o.faultP, "period": o.period, "down": o.down,
			"node": o.node, "at": o.at, "for": o.faultFor,
		},
		Rho:       o.rho,
		Sigma:     o.sigma,
		Rounds:    o.rounds,
		Bandwidth: o.bandwidth,
		Seed:      o.seed,
		Verify:    o.verify,
		Metrics:   metricNames,
		Fault:     o.fault,
	})
}

// runSingle executes a one-point scenario as its one-cell sweep and prints
// the classic report. The trace recorder, which keeps one n-int row per
// round, is attached only for -json and -heatmap, which print it.
func runSingle(ctx context.Context, o options, sc *sb.Scenario, w io.Writer) error {
	note, err := sc.Note()
	if err != nil {
		return err
	}
	links := metrics.NewLinkUtilSeries(2, 0, 0)
	obs := []sb.Observer{links}
	var rec *sb.TraceRecorder
	if o.json || o.heatmap {
		rec = sb.NewTraceRecorder()
		rec.CaptureEvents = o.json
		obs = []sb.Observer{rec, links}
	}
	cell, res, nw, err := sc.RunOne(ctx, obs...)
	if err != nil {
		return err
	}

	if o.json {
		return rec.WriteJSON(w)
	}
	fmt.Fprintf(w, "protocol:   %s\n", res.Protocol)
	fmt.Fprintf(w, "topology:   %s (%d nodes, link bandwidth %d)\n",
		cell.Topology, nw.Len(), nw.BottleneckBandwidth())
	fmt.Fprintf(w, "demand:     %v over %d rounds (%d injected, %d delivered, %d residual)\n",
		cell.Bound, res.Rounds, res.Injected, res.Delivered, res.Residual)
	if cell.Faults != "" {
		goodput := "-"
		if res.Injected > 0 {
			goodput = fmt.Sprintf("%.0f%%", 100*float64(res.Delivered)/float64(res.Injected))
		}
		fmt.Fprintf(w, "faults:     %s (%d dropped in transit, goodput %s)\n",
			cell.Faults, res.Dropped, goodput)
	}
	fmt.Fprintf(w, "max load:   %d (buffer %d, round %d); physical %d\n",
		res.MaxLoad, res.MaxLoadNode, res.MaxLoadRound, res.MaxPhysicalLoad)
	if avg, okAvg := res.AvgLatency(); okAvg {
		fmt.Fprintf(w, "latency:    avg %.1f, max %d\n", avg, res.MaxLatency)
	}
	if link, util, okUtil := busiestLink(links.Summarize(), nw, res.Rounds); okUtil {
		fmt.Fprintf(w, "links:      busiest %d at %.0f%% of rounds×bandwidth\n", link, 100*util)
	}
	if note != "" {
		fmt.Fprintf(w, "paper:      %s\n", note)
	}
	if len(sc.Metrics) > 0 {
		if err := printMetrics(w, res.Metrics); err != nil {
			return err
		}
	}
	if o.heatmap {
		fmt.Fprintln(w)
		if err := rec.RenderHeatmap(w, 40); err != nil {
			return err
		}
	}
	return nil
}

// busiestLink reads the busiest link and its share of rounds × bandwidth
// from a link_util_series summary. A run that moved nothing names the
// lowest node with a link, at 0%; a zero-round run or a topology without
// links has no busiest link.
func busiestLink(s sb.MetricSummary, nw *sb.Network, rounds int) (int, float64, bool) {
	if rounds == 0 {
		return 0, 0, false
	}
	if link := s.Scalar("busiest_link"); link >= 0 {
		return link, float64(s.Scalar("busiest_forwards")) / float64(rounds*s.Scalar("busiest_bandwidth")), true
	}
	for v := range nw.Len() {
		if nw.Next(network.NodeID(v)) != network.None {
			return v, 0, true
		}
	}
	return 0, 0, false
}

// printMetrics renders each collector summary: the scalar line, an ASCII
// histogram for distributions, and a sparkline per bounded series.
func printMetrics(w io.Writer, ms map[string]sb.MetricSummary) error {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := ms[name]
		fmt.Fprintf(w, "\nmetric %s (%s)", s.Name, s.Kind)
		if line := s.ScalarLine(); line != "" {
			fmt.Fprintf(w, ": %s", line)
		}
		if len(s.Scalars) == 0 && s.Hist == nil && len(s.Series) == 0 {
			fmt.Fprint(w, ": per-round series are per cell; rerun as a one-point scenario to plot them")
		}
		fmt.Fprintln(w)
		if s.Hist != nil {
			if err := sb.RenderHistogram(w, "", s.Hist.Bars(), 40); err != nil {
				return err
			}
		}
		for _, ser := range s.Series {
			fmt.Fprintf(w, "  %s/%s, stride %d over %d rounds ", s.Name, ser.Key, ser.Stride, ser.Rounds)
			if err := sb.RenderSeries(w, "", ser.Values, 72); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSweep executes a grid scenario on the parallel harness, one row per
// cell.
func runSweep(ctx context.Context, sc *sb.Scenario, w io.Writer) error {
	agg, err := sc.Run(ctx)
	if agg == nil {
		return err
	}
	fmt.Fprintf(w, "%-64s %9s %9s %9s %11s\n", "cell", "max load", "delivered", "dropped", "avg latency")
	for _, cr := range agg.Cells {
		if cr.Err != nil {
			fmt.Fprintf(w, "%-64s error: %v\n", cr.Cell, cr.Err)
			continue
		}
		lat := "-"
		if avg, ok := cr.Result.AvgLatency(); ok {
			lat = fmt.Sprintf("%.1f", avg)
		}
		fmt.Fprintf(w, "%-64s %9d %9d %9d %11s\n", cr.Cell, cr.Result.MaxLoad, cr.Result.Delivered, cr.Result.Dropped, lat)
	}
	fmt.Fprintf(w, "\ncells:      %d completed, %d failed of %d\n", agg.Completed, agg.Failed, agg.Requested)
	if agg.Completed > 0 {
		fmt.Fprintf(w, "max load:   mean %.1f, max %d\n", agg.MaxLoad.Mean, int(agg.MaxLoad.Max))
	}
	if len(sc.Metrics) > 0 && len(agg.Metrics) > 0 {
		fmt.Fprintf(w, "\naggregated metrics over %d clean cells:", agg.Completed)
		if err := printMetrics(w, agg.Metrics); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	if agg.Failed > 0 {
		return fmt.Errorf("%d of %d cells failed: %v", agg.Failed, agg.Requested, agg.FirstErr())
	}
	return nil
}
