// Command aqtviz renders the paper's Figure 1 (the hierarchical partition
// of the line with a packet's virtual trajectory) and, in -demo mode, an
// occupancy heatmap of a live simulation.
//
// Examples:
//
//	aqtviz                          # Figure 1 exactly as in the paper
//	aqtviz -m 3 -ell 3 -src 0 -dst 22
//	aqtviz -demo -n 64 -rounds 600  # heatmap of PPTS under burst traffic
//	aqtviz -demo -scenario testdata/scenarios/e1-pts-burst.json
//	aqtviz -demo -scenario -        # scenario from stdin
//	aqtviz -serve :8080 -run http://localhost:9000/v1/runs/r-000001
//	aqtviz -serve :8080 -fleet localhost:9000,localhost:9001
//
// With -scenario the demo drives off the same declarative specs as
// aqtsim and aqtbench: any one-point scenario file renders as a heatmap
// plus a max-load sparkline.
//
// With -serve, aqtviz becomes a web dashboard over the live observation
// tier: it watches one run (-run, with SSE cell tailing) or a whole
// fleet (-fleet) and renders progress bars, windowed occupancy
// sparklines, histograms, and per-daemon status — see serve.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	sb "smallbuffers"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aqtviz:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("aqtviz", flag.ContinueOnError)
	m := fs.Int("m", 2, "hierarchy base m")
	ell := fs.Int("ell", 4, "hierarchy levels ℓ")
	src := fs.Int("src", 0, "trajectory source (src ≥ dst omits the trajectory)")
	dst := fs.Int("dst", 13, "trajectory destination")
	demo := fs.Bool("demo", false, "render a live occupancy heatmap instead")
	scenarioPath := fs.String("scenario", "", "demo a one-point scenario file (\"-\" reads stdin; implies -demo)")
	n := fs.Int("n", 64, "demo path length")
	d := fs.Int("d", 8, "demo destination count")
	rounds := fs.Int("rounds", 600, "demo rounds")
	bandwidth := fs.Int("bandwidth", 1, "demo uniform link bandwidth B ≥ 1")
	serveAddr := fs.String("serve", "", "serve the live web dashboard on this address (e.g. :8080)")
	runURL := fs.String("run", "", "with -serve: run URL to watch (http://host:port/v1/runs/<id>)")
	fleetArg := fs.String("fleet", "", "with -serve: comma-separated aqtserve endpoints, or @file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serveAddr != "" {
		// The dashboard watches remote runs; the local figure/demo knobs
		// have no meaning there, so reject the mix.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "serve", "run", "fleet":
			default:
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-serve watches remote runs; drop the conflicting %s", strings.Join(conflict, ", "))
		}
		return runServe(ctx, *serveAddr, *runURL, *fleetArg, os.Stdout)
	}
	if *runURL != "" || *fleetArg != "" {
		return fmt.Errorf("-run and -fleet only apply with -serve")
	}

	if *scenarioPath != "" {
		// The file defines the whole workload; built-in demo knobs would
		// be silently ignored, so reject the mix.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "demo":
			default:
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-scenario drives the demo from the file; drop the conflicting %s", strings.Join(conflict, ", "))
		}
		return runScenarioDemo(ctx, *scenarioPath)
	}
	if *demo {
		return runDemo(ctx, *n, *d, *rounds, *bandwidth)
	}

	h, err := sb.NewHierarchy(*m, *ell)
	if err != nil {
		return err
	}
	return sb.RenderFigure1(os.Stdout, h, *src, *dst)
}

// runScenarioDemo renders the occupancy heatmap of a one-point scenario
// file — the same declarative specs aqtsim -scenario runs — by running its
// one-cell sweep with a trace recorder attached.
func runScenarioDemo(ctx context.Context, path string) error {
	sc, err := sb.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	note, err := sc.Note()
	if err != nil {
		return err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return err
	}
	rec := sb.NewTraceRecorder()
	rec.CaptureEvents = false
	var nw *sb.Network
	sw.Observers = func(_ sb.SweepCell, n *sb.Network) []sb.Observer {
		nw = n
		return []sb.Observer{rec}
	}
	agg, err := sw.Run(ctx)
	if err != nil {
		return err
	}
	cell, res := agg.Cells[0].Cell, agg.Cells[0].Result
	if err := agg.Cells[0].Err; err != nil {
		return err
	}
	title := sc.Name
	if title == "" {
		title = path
	}
	fmt.Printf("%s: %s on %s (%d nodes, link bandwidth %d), %v over %d rounds: max load %d\n",
		title, res.Protocol, cell.Topology, nw.Len(),
		nw.BottleneckBandwidth(), cell.Bound, res.Rounds, res.MaxLoad)
	if note != "" {
		fmt.Printf("paper: %s\n", note)
	}
	fmt.Println()
	if err := rec.RenderHeatmap(os.Stdout, 40); err != nil {
		return err
	}
	fmt.Println()
	if err := sb.RenderSparkline(os.Stdout, rec.MaxLoadSeries(), 72); err != nil {
		return err
	}
	// Scenarios that select the load_series metric also plot the bounded
	// series — the whole-run view that stays O(cap) at any horizon.
	if ls, ok := res.Metrics["load_series"]; ok && len(sc.Metrics) > 0 {
		fmt.Println()
		for _, ser := range ls.Series {
			label := fmt.Sprintf("load_series/%s stride %d over %d rounds", ser.Key, ser.Stride, ser.Rounds)
			if err := sb.RenderSeries(os.Stdout, label, ser.Values, 72); err != nil {
				return err
			}
		}
	}
	return nil
}

func runDemo(ctx context.Context, n, d, rounds, bandwidth int) error {
	nw, err := sb.NewPath(n, sb.WithUniformBandwidth(bandwidth))
	if err != nil {
		return err
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 3}
	adv, err := sb.PPTSBurstAdversary(nw, bound, d, rounds)
	if err != nil {
		return err
	}
	rec := sb.NewTraceRecorder()
	rec.CaptureEvents = false
	res, err := sb.RunContext(ctx,
		sb.NewSpec(nw, sb.NewPPTS(sb.PPTSWithDrain()), adv, rounds, sb.WithObservers(rec)))
	if err != nil {
		return err
	}
	fmt.Printf("PPTS under a d=%d burst workload on %d nodes (link bandwidth %d): max load %d (B=1 bound %d)\n\n",
		d, n, bandwidth, res.MaxLoad, 1+d+bound.Sigma)
	if err := rec.RenderHeatmap(os.Stdout, 40); err != nil {
		return err
	}
	fmt.Println()
	return sb.RenderSparkline(os.Stdout, rec.MaxLoadSeries(), 72)
}
