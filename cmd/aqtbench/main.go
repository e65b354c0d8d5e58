// Command aqtbench regenerates the paper's evaluation: every theorem and
// figure as a measured table (see DESIGN.md §4 for the experiment index),
// and runs scenario-file workloads (see testdata/scenarios/).
//
// Examples:
//
//	aqtbench                      # run the full suite (F1, E1–E12)
//	aqtbench -run E4              # one experiment
//	aqtbench -run E12 -bandwidths 1,2,4,8,16   # custom link-bandwidth axis
//	aqtbench -o report.txt        # write to a file
//	aqtbench -json -o bench.json  # machine-readable outcomes (BENCH_*.json trajectory)
//	aqtbench -list                # list experiments
//	aqtbench -scenarios testdata/scenarios    # run every scenario file in a directory
//	aqtbench -scenarios e7.json -validate     # validate without running
//	aqtbench -scenarios testdata/scenarios -server http://localhost:8080
//	                                          # replay the corpus against aqtserve
//	aqtbench -scenarios testdata/scenarios -fleet localhost:8080,localhost:8081
//	                                          # replay the corpus across an aqtserve fleet
//
// Interrupting the process (SIGINT/SIGTERM) cancels the suite between
// simulation rounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	sb "smallbuffers"
	"smallbuffers/internal/experiments"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// parseBandwidths parses the -bandwidths axis ("1,2,4,8").
func parseBandwidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad -bandwidths entry %q (want integers ≥ 1)", part)
		}
		out = append(out, b)
	}
	return out, nil
}

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
	id := fs.String("run", "", "experiment to run (E1…E12, F1); empty = all")
	out := fs.String("o", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON outcomes instead of text tables")
	bandwidths := fs.String("bandwidths", "", "comma-separated link-bandwidth axis for E12 (default 1,2,4,8)")
	scenarios := fs.String("scenarios", "", "run scenario files instead of experiments (a .json file or a directory of them)")
	validate := fs.Bool("validate", false, "with -scenarios: validate and round-trip the files without running them")
	server := fs.String("server", "", "with -scenarios: POST each scenario to a running aqtserve at this base URL instead of simulating locally")
	fleetArg := fs.String("fleet", "", "with -scenarios: shard each scenario across a fleet of aqtserve daemons (comma-separated endpoints, or @file with one per line)")
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
		if *asJSON || *list || *id != "" || *bandwidths != "" {
			return fmt.Errorf("-scenarios cannot be combined with -json, -list, -run, or -bandwidths")
		}
		if *server != "" && *fleetArg != "" {
			return fmt.Errorf("-server and -fleet are mutually exclusive")
		}
		if *server != "" || *fleetArg != "" {
			if *validate {
				return fmt.Errorf("-validate is local-only; drop it when using -server or -fleet")
			}
			if *storeDir != "" {
				return fmt.Errorf("-store is local-only; drop it when using -server or -fleet")
			}
		}
		if *storeDir != "" && *validate {
			return fmt.Errorf("-store runs scenarios; drop -validate")
		}
		if *server != "" {
			return runScenariosRemote(ctx, w, *server, *scenarios)
		}
		if *fleetArg != "" {
			return runScenariosFleet(ctx, w, *fleetArg, *scenarios)
		}
		return runScenarios(ctx, w, *scenarios, *validate, *storeDir)
	}
	if *validate {
		return fmt.Errorf("-validate needs -scenarios")
	}
	if *server != "" {
		return fmt.Errorf("-server needs -scenarios")
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
	if *bandwidths != "" {
		bs, err := parseBandwidths(*bandwidths)
		if err != nil {
			return err
		}
		for i, e := range exps {
			if e.ID == "E12" {
				exps[i] = sb.BandwidthExperiment(bs...)
			}
		}
	}
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
// optional suffix, e.g. the remote base URL).
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

	title := sc.Name
	if title == "" {
		title = filepath.Base(path)
	}
	if validateOnly {
		_, err := fmt.Fprintf(w, "%-28s valid\n", title)
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
			_, err := fmt.Fprintf(w, "%-28s stored (results %s)\n", title, stored)
			return nil, err
		}
	}

	agg, err := sc.Run(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n%s — %s\n", title, path)
	if sc.Doc != "" {
		fmt.Fprintf(w, "%s\n", sc.Doc)
	}
	fmt.Fprintln(w)
	for _, cr := range agg.Cells {
		if cr.Err != nil {
			fmt.Fprintf(w, "  %-70s error: %v\n", cr.Cell, cr.Err)
			continue
		}
		fmt.Fprintf(w, "  %-70s max load %3d, delivered %6d\n", cr.Cell, cr.Result.MaxLoad, cr.Result.Delivered)
	}
	if agg.Failed > 0 {
		return nil, fmt.Errorf("%d of %d cells failed: %v", agg.Failed, agg.Requested, agg.FirstErr())
	}
	var ms map[string]sb.MetricSummary
	if len(sc.Metrics) > 0 {
		ms = agg.Metrics
		printMetricLines(w, "  ", ms)
	}
	if storeDir != "" {
		if err := store.Seal(storeDir, dig, span, agg.Records(), agg.Digest()); err != nil {
			return ms, fmt.Errorf("persisting results: %w", err)
		}
	}
	_, err = fmt.Fprintf(w, "  ok (%d cells)\n", agg.Completed)
	return ms, err
}

// runScenariosRemote replays every scenario file against a running
// aqtserve daemon: each file is validated locally, POSTed in canonical
// form, and reported with the server's digests — so a corpus replay
// doubles as a remote-vs-local reproducibility check (compare
// results_digest with `aqtsim -scenario f -result-digest`).
func runScenariosRemote(ctx context.Context, w io.Writer, baseURL, path string) error {
	baseURL = strings.TrimRight(baseURL, "/")
	client := &http.Client{}
	var corpus []map[string]sb.MetricSummary
	if err := forEachScenarioFile(ctx, w, path, "ran", " against "+baseURL, func(f string) error {
		m, err := runScenarioRemote(ctx, w, client, baseURL, f)
		if len(m) > 0 {
			corpus = append(corpus, m)
		}
		return err
	}); err != nil {
		return err
	}
	return printCorpusMetrics(w, corpus)
}

func runScenarioRemote(ctx context.Context, w io.Writer, client *http.Client, baseURL, path string) (map[string]sb.MetricSummary, error) {
	sc, err := sb.LoadScenarioFile(path)
	if err != nil {
		return nil, err
	}
	body, err := sc.Marshal()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	var rep service.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bad response (%s): %w", resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s: %s", resp.Status, rep.Error)
	}

	title := sc.Name
	if title == "" {
		title = filepath.Base(path)
	}
	from := "simulated"
	if rep.Cached {
		from = "served from cache"
	}
	fmt.Fprintf(w, "\n%s — %s (%s, run %s, %s)\n\n", title, path, rep.Digest, rep.ID, from)
	for _, cell := range rep.Cells {
		if cell.Err != "" {
			fmt.Fprintf(w, "  %-70s error: %v\n", cell.Cell, cell.Err)
			continue
		}
		fmt.Fprintf(w, "  %-70s max load %3d, delivered %6d\n", cell.Cell, cell.MaxLoad, cell.Delivered)
	}
	if rep.Summary == nil {
		return nil, fmt.Errorf("server report carries no summary (status %s)", rep.Status)
	}
	if rep.Summary.Failed > 0 {
		return nil, fmt.Errorf("%d of %d cells failed", rep.Summary.Failed, rep.Summary.Requested)
	}
	var ms map[string]sb.MetricSummary
	if len(sc.Metrics) > 0 && len(rep.Summary.Metrics) > 0 {
		ms = make(map[string]sb.MetricSummary, len(rep.Summary.Metrics))
		for _, s := range rep.Summary.Metrics {
			ms[s.Name] = s
		}
		printMetricLines(w, "  ", ms)
	}
	_, err = fmt.Fprintf(w, "  ok (%d cells, results %s)\n", rep.Summary.Completed, rep.ResultsDigest)
	return ms, err
}

// runScenariosFleet replays every scenario file across a fleet of
// aqtserve daemons via the coordinator: each grid is sharded, dispatched
// with retry and work stealing, and merged — and the merged results
// digest is printed next to the fleet timing so a corpus replay doubles
// as the distributed-vs-local reproducibility check (compare with
// `aqtsim -scenario f -result-digest`).
func runScenariosFleet(ctx context.Context, w io.Writer, fleetArg, path string) error {
	endpoints, err := sb.ParseFleetEndpoints(fleetArg)
	if err != nil {
		return err
	}
	cfg := sb.FleetConfig{Endpoints: endpoints}
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

	title := sc.Name
	if title == "" {
		title = filepath.Base(path)
	}
	fmt.Fprintf(w, "\n%s — %s\n\n", title, path)
	for _, cell := range res.Records {
		if cell.Err != "" {
			fmt.Fprintf(w, "  %-70s error: %v\n", cell.Cell, cell.Err)
			continue
		}
		fmt.Fprintf(w, "  %-70s max load %3d, delivered %6d\n", cell.Cell, cell.MaxLoad, cell.Delivered)
	}
	if sum.Failed > 0 {
		return nil, fmt.Errorf("%d of %d cells failed", sum.Failed, sum.Requested)
	}
	var ms map[string]sb.MetricSummary
	if len(sc.Metrics) > 0 && len(sum.Metrics) > 0 {
		ms = make(map[string]sb.MetricSummary, len(sum.Metrics))
		for _, s := range sum.Metrics {
			ms[s.Name] = s
		}
		printMetricLines(w, "  ", ms)
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
