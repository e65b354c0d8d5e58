// Command aqtbench regenerates the paper's evaluation: every theorem and
// figure as a measured table (see EXPERIMENTS.md for the experiment index),
// and runs scenario-file workloads (see testdata/scenarios/).
//
// Examples:
//
//	aqtbench                      # run the full suite (F1, E1–E13)
//	aqtbench -run E4              # one experiment
//	aqtbench -o report.txt        # write to a file
//	aqtbench -json -o bench.json  # machine-readable outcomes (BENCH_*.json trajectory)
//	aqtbench -list                # list experiments
//	aqtbench -scenarios testdata/scenarios    # run every scenario file in a directory
//	aqtbench -scenarios e7.json -validate     # validate without running
//	aqtbench -scenarios testdata/scenarios -fleet localhost:8080
//	                                          # replay the corpus against one aqtserve
//	aqtbench -scenarios testdata/scenarios -fleet localhost:8080,localhost:8081
//	                                          # replay the corpus across an aqtserve fleet
//
// Interrupting the process (SIGINT/SIGTERM) cancels the suite between
// simulation rounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	sb "smallbuffers"
	"smallbuffers/internal/experiments"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/live"
	"smallbuffers/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aqtbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("aqtbench", flag.ContinueOnError)
	id := fs.String("run", "", "experiment to run (E1…E13, F1); empty = all")
	out := fs.String("o", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON outcomes instead of text tables")
	scenarios := fs.String("scenarios", "", "run scenario files instead of experiments (a .json file or a directory of them)")
	validate := fs.Bool("validate", false, "with -scenarios: validate and round-trip the files without running them")
	fleetArg := fs.String("fleet", "", "with -scenarios: run each scenario on aqtserve daemons instead of locally — one endpoint, a comma-separated fleet, or @file with one per line")
	storeDir := fs.String("store", "", "with -scenarios (local runs): durable result store — scenarios whose stored records verify are skipped, fresh results persist")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "aqtbench: close:", cerr)
			}
		}()
		w = f
	}

	if *scenarios != "" {
		if *asJSON || *list || *id != "" {
			return fmt.Errorf("-scenarios cannot be combined with -json, -list, or -run")
		}
		if *fleetArg != "" {
			if *validate {
				return fmt.Errorf("-validate is local-only; drop it when using -fleet")
			}
			if *storeDir != "" {
				return fmt.Errorf("-store is local-only; drop it when using -fleet")
			}
		}
		if *storeDir != "" && *validate {
			return fmt.Errorf("-store runs scenarios; drop -validate")
		}
		if *fleetArg != "" {
			return runScenariosFleet(ctx, w, *fleetArg, *scenarios)
		}
		return runScenarios(ctx, w, *scenarios, *validate, *storeDir)
	}
	if *validate {
		return fmt.Errorf("-validate needs -scenarios")
	}
	if *fleetArg != "" {
		return fmt.Errorf("-fleet needs -scenarios")
	}
	if *storeDir != "" {
		return fmt.Errorf("-store needs -scenarios")
	}

	if *list {
		for _, e := range sb.Experiments() {
			if _, err := fmt.Fprintf(w, "%-4s %-60s %s\n", e.ID, e.Title, e.Paper); err != nil {
				return err
			}
		}
		return nil
	}

	exps := sb.Experiments()
	if *id != "" {
		found := false
		for _, e := range exps {
			if e.ID == *id {
				exps = []sb.Experiment{e}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q", *id)
		}
	}

	if *asJSON {
		return runJSON(ctx, w, exps)
	}

	ok, err := experiments.RunAll(ctx, w, exps)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("some experiments report violated bounds")
	}
	_, err = fmt.Fprintln(w, "\nall experiments passed")
	return err
}

// scenarioFiles expands the -scenarios operand: a .json file stands
// alone, a directory contributes its *.json entries, sorted.
func scenarioFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.json scenario files under %s", path)
	}
	sort.Strings(files)
	return files, nil
}

// forEachScenarioFile expands the -scenarios operand and applies fn to
// every file, printing FAIL lines and aggregating the failure count; on
// success it prints the "<verb> all N scenario files" summary (with the
// optional suffix, e.g. the fleet size).
func forEachScenarioFile(ctx context.Context, w io.Writer, path, verb, suffix string, fn func(f string) error) error {
	files, err := scenarioFiles(path)
	if err != nil {
		return err
	}
	failed := 0
	for _, f := range files {
		if err := fn(f); err != nil {
			failed++
			fmt.Fprintf(w, "%s: FAIL: %v\n", f, err)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario files failed", failed, len(files))
	}
	_, err = fmt.Fprintf(w, "\n%s all %d scenario files%s\n", verb, len(files), suffix)
	return err
}

// runScenarios validates (and, unless validateOnly, executes) every
// scenario file, reporting one block per file. Validation includes the
// canonical round-trip: the marshaled form must load and re-marshal to
// the same bytes. Files that select metrics contribute their aggregated
// summaries to a corpus-wide report (percentiles re-derived from the
// merged histograms, not averaged).
func runScenarios(ctx context.Context, w io.Writer, path string, validateOnly bool, storeDir string) error {
	verb := "ran"
	if validateOnly {
		verb = "validated"
	}
	var corpus []map[string]sb.MetricSummary
	if err := forEachScenarioFile(ctx, w, path, verb, "", func(f string) error {
		m, err := runScenarioFile(ctx, w, f, validateOnly, storeDir)
		if len(m) > 0 {
			corpus = append(corpus, m)
		}
		return err
	}); err != nil {
		return err
	}
	return printCorpusMetrics(w, corpus)
}

// printMetricLines writes one "metric <name>: k=v …" line per summary,
// sorted by name.
func printMetricLines(w io.Writer, indent string, ms map[string]sb.MetricSummary) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := ms[name]
		if line := s.ScalarLine(); line != "" {
			fmt.Fprintf(w, "%smetric %-18s %s\n", indent, s.Name+":", line)
		}
	}
}

// printCorpusMetrics merges every contributing file's summaries and
// reports corpus-wide aggregates.
func printCorpusMetrics(w io.Writer, corpus []map[string]sb.MetricSummary) error {
	if len(corpus) == 0 {
		return nil
	}
	merged, err := sb.MergeMetricSummaries(corpus)
	if err != nil || len(merged) == 0 {
		return err
	}
	fmt.Fprintf(w, "\ncorpus metrics (merged over %d scenario files):\n", len(corpus))
	printMetricLines(w, "  ", merged)
	return nil
}

func runScenarioFile(ctx context.Context, w io.Writer, path string, validateOnly bool, storeDir string) (map[string]sb.MetricSummary, error) {
	sc, err := sb.LoadScenarioFile(path)
	if err != nil {
		return nil, err
	}
	// Canonical round-trip gate: Marshal∘Load must be a fixed point.
	first, err := sc.Marshal()
	if err != nil {
		return nil, err
	}
	reloaded, err := sb.ParseScenario(first)
	if err != nil {
		return nil, fmt.Errorf("canonical form does not load: %w", err)
	}
	second, err := reloaded.Marshal()
	if err != nil {
		return nil, err
	}
	if string(first) != string(second) {
		return nil, fmt.Errorf("canonical form is not a marshal fixed point")
	}

	if validateOnly {
		_, err := fmt.Fprintf(w, "%-28s valid\n", scenarioTitle(sc, path))
		return nil, err
	}
	// -store keys each file's entry by its scenario digest over the whole
	// grid; a sealed entry is reported instead of re-run.
	var dig string
	var span sb.CellIndexRange
	if storeDir != "" {
		if dig, err = sc.Digest(); err != nil {
			return nil, err
		}
		if span.Hi, err = sc.GridSize(); err != nil {
			return nil, err
		}
		st, err := store.OpenSealed(storeDir, dig, span)
		if err != nil {
			return nil, err
		}
		if st != nil {
			stored := st.RecordsDigest()
			st.Close()
			_, err := fmt.Fprintf(w, "%-28s stored (results %s)\n", scenarioTitle(sc, path), stored)
			return nil, err
		}
	}

	agg, err := sc.Run(ctx)
	if err != nil {
		return nil, err
	}
	recs := agg.Records()
	ms, err := printScenarioRun(w, sc, path, recs, agg.Metrics)
	if err != nil {
		return nil, err
	}
	if storeDir != "" {
		lines := make([]json.RawMessage, len(recs))
		for i, rec := range recs {
			lines[i] = harness.MarshalCanonical(rec)
		}
		if err := store.Seal(storeDir, dig, span, lines, agg.Digest()); err != nil {
			return ms, fmt.Errorf("persisting results: %w", err)
		}
	}
	_, err = fmt.Fprintf(w, "  ok (%d cells)\n", agg.Completed)
	return ms, err
}

// scenarioTitle names a file's block: the scenario's name, else the
// file name.
func scenarioTitle(sc *sb.Scenario, path string) string {
	if sc.Name != "" {
		return sc.Name
	}
	return filepath.Base(path)
}

// printScenarioRun renders one file's run from its cell records, however
// they were produced: a header, one line per cell, and — for a file that
// selects metrics — the metric lines of ms, which it returns for the
// corpus report. A failed cell fails the file before its metric lines.
func printScenarioRun(w io.Writer, sc *sb.Scenario, path string, recs []harness.CellRecord, ms map[string]sb.MetricSummary) (map[string]sb.MetricSummary, error) {
	fmt.Fprintf(w, "\n%s — %s\n", scenarioTitle(sc, path), path)
	if sc.Doc != "" {
		fmt.Fprintf(w, "%s\n", sc.Doc)
	}
	fmt.Fprintln(w)
	failed, firstErr := 0, ""
	for _, rec := range recs {
		if rec.Err != "" {
			if failed == 0 {
				firstErr = rec.Err
			}
			failed++
			fmt.Fprintf(w, "  %-70s error: %v\n", rec.Cell, rec.Err)
			continue
		}
		fmt.Fprintf(w, "  %-70s max load %3d, delivered %6d\n", rec.Cell, rec.MaxLoad, rec.Delivered)
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d cells failed: %s", failed, len(recs), firstErr)
	}
	if len(sc.Metrics) == 0 || len(ms) == 0 {
		return nil, nil
	}
	printMetricLines(w, "  ", ms)
	return ms, nil
}

// fleetClock is the fleet coordinator's clock; nil, the system clock,
// outside tests, which swap in a fake one so retry backoff takes no time.
var fleetClock live.Clock

// runScenariosFleet replays every scenario file on aqtserve daemons via
// the fleet coordinator — one endpoint is a one-daemon fleet: each grid
// is sharded, dispatched with retry and work stealing, and merged, and
// the merged results digest is printed next to the fleet timing so a
// corpus replay doubles as the served-vs-local reproducibility check
// (compare with `aqtsim -scenario f -result-digest`).
func runScenariosFleet(ctx context.Context, w io.Writer, fleetArg, path string) error {
	endpoints, err := sb.ParseFleetEndpoints(fleetArg)
	if err != nil {
		return err
	}
	cfg := sb.FleetConfig{Endpoints: endpoints, Clock: fleetClock}
	var corpus []map[string]sb.MetricSummary
	if err := forEachScenarioFile(ctx, w, path, "ran", fmt.Sprintf(" across %d daemons", len(endpoints)), func(f string) error {
		m, err := runScenarioFleet(ctx, w, cfg, f)
		if len(m) > 0 {
			corpus = append(corpus, m)
		}
		return err
	}); err != nil {
		return err
	}
	return printCorpusMetrics(w, corpus)
}

func runScenarioFleet(ctx context.Context, w io.Writer, cfg sb.FleetConfig, path string) (map[string]sb.MetricSummary, error) {
	sc, err := sb.LoadScenarioFile(path)
	if err != nil {
		return nil, err
	}
	res, err := sb.RunFleet(ctx, cfg, sc)
	if err != nil {
		return nil, err
	}
	sum := res.Summary
	ms := make(map[string]sb.MetricSummary, len(sum.Metrics))
	for _, s := range sum.Metrics {
		ms[s.Name] = s
	}
	if ms, err = printScenarioRun(w, sc, path, res.Records, ms); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  fleet: %d retries, %d steals, wall %v (ideal %v)\n",
		sum.Retries, sum.Steals, sum.Wall.Round(time.Millisecond), sum.Ideal.Round(time.Millisecond))
	_, err = fmt.Fprintf(w, "  ok (%d cells, results %s)\n", sum.Completed, sum.ResultsDigest)
	return ms, err
}

// The JSON schema tracked across benchmark snapshots (BENCH_*.json): one
// record per experiment with its structured tables, so downstream tooling
// can diff measured values between revisions without scraping text.
type jsonReport struct {
	Suite       string           `json:"suite"`
	OK          bool             `json:"ok"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Paper  string      `json:"paper"`
	OK     bool        `json:"ok"`
	Notes  []string    `json:"notes,omitempty"`
	Tables []jsonTable `json:"tables"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func runJSON(ctx context.Context, w io.Writer, exps []sb.Experiment) error {
	report := jsonReport{Suite: "smallbuffers reproduction", OK: true}
	for _, e := range exps {
		outcome, err := e.Run(ctx, io.Discard)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		je := jsonExperiment{ID: e.ID, Title: e.Title, Paper: e.Paper, OK: outcome.OK, Notes: outcome.Notes}
		for _, t := range outcome.Tables {
			je.Tables = append(je.Tables, jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
		}
		report.Experiments = append(report.Experiments, je)
		report.OK = report.OK && outcome.OK
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if !report.OK {
		return fmt.Errorf("some experiments report violated bounds")
	}
	return nil
}
