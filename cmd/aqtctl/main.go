// Command aqtctl coordinates a fleet of aqtserve daemons: it takes one
// scenario file, splits its sweep grid into deterministic index-range
// shards, dispatches them across the fleet with retry and work stealing,
// and merges the streamed cells back into exactly the record set — and
// results digest — of a local single-process run.
//
//	aqtctl -fleet localhost:8080,localhost:8081,localhost:8082 \
//	       -scenario testdata/scenarios/e1-pts-burst.json
//	aqtctl -fleet @fleet.txt -scenario sweep.json -verify-local
//	aqtctl -fleet @fleet.txt -scenario sweep.json -result-digest
//	aqtctl -fleet @fleet.txt -live -interval 2s
//
// A fleet file (@path) lists one endpoint per line; blank lines and
// #-comments are ignored.
//
// -live turns aqtctl into a fleet monitor instead of a dispatcher: it
// polls every daemon's /v1/runs/{id}/live views and prints one merged
// progress/occupancy report per tick (strictly observational — watching
// never perturbs execution or results digests). -once prints a single
// snapshot and exits.
//
// Failure semantics: every streamed cell is merged on arrival. When a
// shard's daemon dies mid-stream, the cells it delivered stay merged and
// only the uncovered remainder is re-dispatched to a healthy daemon
// (capped exponential backoff, bounded attempts, per-daemon quarantine);
// an idle daemon steals the largest in-flight shard by cancelling it
// remotely, and the remainder is re-dispatched the same way. This holds
// with and without -store. Cells are merged exactly once or the run
// fails — there is no partial success. -verify-local re-runs the
// scenario in-process and hard-errors on any digest divergence.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	sb "smallbuffers"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "aqtctl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aqtctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fleetArg := fs.String("fleet", "", "comma-separated aqtserve endpoints (host:port,…), or @file with one per line")
	scenarioPath := fs.String("scenario", "", "scenario file to execute across the fleet")
	shards := fs.Int("shards", 2, "initial shards per daemon")
	inflight := fs.Int("inflight", 2, "concurrent shard streams per daemon")
	maxAttempts := fs.Int("max-attempts", 4, "dispatch attempts per shard before the run fails")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per consecutive failure)")
	backoffMax := fs.Duration("backoff-max", 2*time.Second, "retry backoff cap")
	minSteal := fs.Int("min-steal", 4, "smallest shard piece work stealing may create")
	storeDir := fs.String("store", "", "durable result-store directory: merged cells stream to disk (O(1) coordinator memory) and survive a killed run")
	resume := fs.Bool("resume", false, "with -store, resume a partial entry: dispatch only the cells not yet on disk")
	liveMode := fs.Bool("live", false, "monitor the fleet's in-flight runs instead of dispatching a sweep")
	interval := fs.Duration("interval", time.Second, "poll interval for -live")
	once := fs.Bool("once", false, "with -live, print one snapshot and exit")
	verifyLocal := fs.Bool("verify-local", false, "re-run the scenario in-process and fail on digest divergence")
	digestOnly := fs.Bool("result-digest", false, "print only the merged results digest")
	asJSON := fs.Bool("json", false, "print the fleet summary as JSON")
	quiet := fs.Bool("q", false, "suppress progress logging")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetArg == "" {
		return fmt.Errorf("-fleet is required")
	}
	if *liveMode {
		if *scenarioPath != "" {
			return fmt.Errorf("-live monitors runs already in flight; it does not take -scenario")
		}
	} else if *scenarioPath == "" {
		return fmt.Errorf("-scenario is required")
	}

	endpoints, err := sb.ParseFleetEndpoints(*fleetArg)
	if err != nil {
		return err
	}
	if *liveMode {
		return runLive(ctx, sb.FleetConfig{Endpoints: endpoints}, *interval, *once, stdout)
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store")
	}
	sc, err := sb.LoadScenarioFile(*scenarioPath)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(stderr, "aqtctl: close:", cerr)
			}
		}()
		w = f
	}

	cfg := sb.FleetConfig{
		Endpoints:         endpoints,
		ShardsPerDaemon:   *shards,
		InFlightPerDaemon: *inflight,
		MaxAttempts:       *maxAttempts,
		BackoffBase:       *backoff,
		BackoffMax:        *backoffMax,
		MinStealCells:     *minSteal,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	if *storeDir != "" {
		dig, err := sc.Digest()
		if err != nil {
			return err
		}
		total, err := sc.GridSize()
		if err != nil {
			return err
		}
		st, err := sb.OpenResultStore(*storeDir, dig, sb.CellIndexRange{Lo: 0, Hi: total}, sb.ResultStoreOptions{})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintln(stderr, "aqtctl: store close:", cerr)
			}
		}()
		if n := st.Count(); n > 0 && !*resume {
			return fmt.Errorf("store already holds %d of %d cells for this scenario; pass -resume to continue it (or delete %s)",
				n, total, sb.StoreEntryDir(*storeDir, dig))
		} else if n > 0 && !*quiet {
			fmt.Fprintf(stderr, "fleet: resuming %d of %d cells from %s\n", n, total, *storeDir)
		}
		cfg.Store = st
	}

	res, err := sb.RunFleet(ctx, cfg, sc)
	if err != nil {
		return err
	}
	if *verifyLocal {
		if err := sb.VerifyFleetLocal(ctx, sc, res.Summary.ResultsDigest); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintln(stderr, "fleet: local verification passed")
		}
	}

	if *digestOnly {
		_, err := fmt.Fprintln(w, res.Summary.ResultsDigest)
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Summary)
	}
	return printSummary(w, sc.Name, res.Summary)
}

// runLive polls the fleet's live views and prints one merged report per
// tick until interrupted (or after a single tick with -once).
func runLive(ctx context.Context, cfg sb.FleetConfig, interval time.Duration, once bool, w io.Writer) error {
	err := sb.FleetLiveWatch(ctx, cfg, interval, func(snap *sb.FleetLiveView) bool {
		printLive(w, snap)
		return !once
	})
	if errors.Is(err, context.Canceled) {
		return nil // interrupted by the user; the last snapshot already printed
	}
	return err
}

// printLive renders one fleet-wide live snapshot: aggregate progress,
// then each daemon's in-flight runs, then the merged windowed metrics.
func printLive(w io.Writer, snap *sb.FleetLiveView) {
	fmt.Fprintf(w, "fleet      %d runs in flight, cells %d/%d (%d‰), %d executing, %d.%03d cells/s\n",
		snap.RunsInFlight, snap.CellsDone, snap.CellsTotal, snap.Progress(),
		snap.CellsInFlight, snap.CellsPerSecMillis/1000, snap.CellsPerSecMillis%1000)
	for _, d := range snap.Daemons {
		switch {
		case d.Err != "":
			fmt.Fprintf(w, "  %-24s UNREACHABLE: %s\n", d.Endpoint, d.Err)
		case len(d.Runs) == 0:
			fmt.Fprintf(w, "  %-24s idle\n", d.Endpoint)
		default:
			for _, r := range d.Runs {
				eta := ""
				if r.ETAMillis > 0 {
					eta = fmt.Sprintf(", eta %v", (time.Duration(r.ETAMillis) * time.Millisecond).Round(time.Millisecond))
				}
				fmt.Fprintf(w, "  %-24s %s %s cells %d/%d (%d‰)%s\n",
					d.Endpoint, r.ID, r.Status, r.CellsDone, r.CellsTotal, r.Progress(), eta)
			}
		}
	}
	for _, s := range snap.Metrics {
		if line := s.ScalarLine(); line != "" {
			fmt.Fprintf(w, "  metric %-18s %s\n", s.Name+":", line)
		}
	}
	fmt.Fprintln(w, "---")
}

func printSummary(w io.Writer, name string, sum sb.FleetSummary) error {
	if name != "" {
		fmt.Fprintf(w, "%s\n", name)
	}
	fmt.Fprintf(w, "cells      %d requested, %d completed, %d failed\n", sum.Requested, sum.Completed, sum.Failed)
	if sum.Resumed > 0 {
		fmt.Fprintf(w, "resumed    %d cells already on disk; only the remainder was dispatched\n", sum.Resumed)
	}
	fmt.Fprintf(w, "digest     %s\n", sum.ResultsDigest)
	fmt.Fprintf(w, "fleet      %d retries, %d steals, wall %v (ideal %v)\n",
		sum.Retries, sum.Steals, sum.Wall.Round(time.Millisecond), sum.Ideal.Round(time.Millisecond))
	for _, d := range sum.Daemons {
		note := ""
		if d.Quarantined {
			note = "  QUARANTINED"
		}
		fmt.Fprintf(w, "  %-24s %4d cells in %d dispatches, %d failures, stolen from %d×, busy %v%s\n",
			d.Endpoint, d.Cells, d.Dispatches, d.Failures, d.StolenFrom, d.Busy.Round(time.Millisecond), note)
	}
	for _, s := range sum.Metrics {
		if line := s.ScalarLine(); line != "" {
			fmt.Fprintf(w, "  metric %-18s %s\n", s.Name+":", line)
		}
	}
	_, err := fmt.Fprintln(w, "ok")
	return err
}
