// Package experiments defines the reproduction suite: one executable
// experiment per theorem/figure of the paper, each printing a table of
// parameters, measured values, and the paper's predicted bound. The
// cmd/aqtbench binary runs these; their output is the source for
// EXPERIMENTS.md.
//
// E1–E4, E7 and E12 are data: scenario files named after the experiment
// ("e1-*.json"), checked cell by cell against the bound each protocol
// declares in the registry. The others build their tables in Go.
//
// Index (see the Index section of EXPERIMENTS.md for the full mapping):
//
//	F1  Figure 1        hierarchical partition and virtual trajectory
//	E1  Prop 3.1        PTS ≤ 2 + σ
//	E2  Prop 3.2        PPTS ≤ 1 + d + σ
//	E3  Props B.3/3.5   tree PTS ≤ 2 + σ; tree PPTS ≤ 1 + d′ + σ
//	E4  Thm 4.1         HPTS ≤ ℓ·n^(1/ℓ) + σ + 1
//	E5  Thm 5.1         lower-bound pattern forces Ω(((ℓ+1)ρ−1)/2ℓ·m)
//	E6  abstract        the space-vs-rate tradeoff curve k·d^(1/k)
//	E7  §1 / [17]       greedy baselines vs PPTS on d destinations
//	E8  design §4.2     ablations: ActivatePreBad; drain-when-idle
//	E9  Thm 5.1 (exact) exhaustive offline optimum on tiny instances
//	E10 §1 ([9],[17])   the price of locality: PTS vs downhill protocols
//	E11 complement      the latency price of space-optimal forwarding
//	E12 title/§1        space vs link bandwidth B on capacitated links
//	E13 Prop 3.1+faults buffer headroom under loss: drop p vs load/goodput
package experiments

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"strings"

	"smallbuffers/internal/metrics"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// Outcome is the structured result of one experiment.
type Outcome struct {
	Tables []*stats.Table
	// OK reports whether every bound assertion in the experiment held.
	OK bool
	// Notes carries free-form observations (expected shapes, caveats).
	Notes []string
}

// Experiment is one reproducible unit of the evaluation. Run honors ctx:
// a cancelled context stops the experiment's simulations between rounds.
type Experiment struct {
	ID    string
	Title string
	// Paper identifies the artifact being reproduced.
	Paper string
	Run   func(ctx context.Context, w io.Writer) (*Outcome, error)
}

// All returns the full suite in presentation order; files holds the
// scenario files of the file-backed experiments.
func All(files fs.FS) []Experiment {
	return []Experiment{
		Figure1(),
		fromFiles(files, "E1", "PTS buffer bound on a path, single destination",
			"Proposition 3.1: max load ≤ 2 + σ"),
		fromFiles(files, "E2", "PPTS buffer bound on a path, d destinations",
			"Proposition 3.2: max load ≤ 1 + d + σ"),
		fromFiles(files, "E3", "tree PTS and PPTS buffer bounds on directed trees",
			"Prop B.3: ≤ 2 + σ (single dest); Prop 3.5: ≤ 1 + d′ + σ"),
		fromFiles(files, "E4", "HPTS hierarchical bound on a path of n = m^ℓ nodes",
			"Theorem 4.1: max load ≤ ℓ·n^(1/ℓ) + σ + 1 for ρ·ℓ ≤ 1"),
		E5LowerBound(),
		E6Tradeoff(),
		fromFiles(files, "E7", "greedy scheduling policies vs PPTS under d-destination stress",
			"§1 (and [17]): greedy forwarding needs Ω(d) buffers for ρ > 1/2"),
		E8Ablations(),
		E9Exact(),
		E10Locality(),
		E11Latency(),
		fromFiles(files, "E12", "space vs link bandwidth: max load under capacitated links",
			"title/§1: with great speed come small buffers — B ≥ 1 generalization"),
		E13Faults(),
	}
}

// ByID finds an experiment of All(files) by its identifier ("E1" … "E13",
// "F1").
func ByID(files fs.FS, id string) (Experiment, error) {
	for _, e := range All(files) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// fromFiles returns the experiment whose tables are the scenario files of
// files named "<id>-*.json" (in lower case). Each file runs through
// Scenario.Run and renders one table of cell, max load, bound and ✓,
// where the bound is the one the cell's protocol declares
// (Scenario.CellBounds). The experiment fails if any cell errors or goes
// over its bound.
func fromFiles(files fs.FS, id, title, paper string) Experiment {
	return Experiment{ID: id, Title: title, Paper: paper, Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
		names, err := fs.Glob(files, strings.ToLower(id)+"-*.json")
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("no %s-*.json scenario files", strings.ToLower(id))
		}
		out := &Outcome{OK: true}
		for _, name := range names {
			data, err := fs.ReadFile(files, name)
			if err != nil {
				return nil, err
			}
			sc, err := scenario.Parse(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			bounds, err := sc.CellBounds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			agg, err := sc.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if err := agg.FirstErr(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			table := stats.NewTable(sc.Name+": "+sc.Doc, "cell", "max load", "bound", "✓")
			for _, cr := range agg.Cells {
				b, ok := bounds[cr.Cell.Index]
				if !ok {
					table.AddRow(cr.Cell, cr.Result.MaxLoad, "—", "—")
					continue
				}
				within := cr.Result.MaxLoad <= b
				out.OK = out.OK && within
				table.AddRow(cr.Cell, cr.Result.MaxLoad, b, stats.CheckMark(within))
			}
			out.Tables = append(out.Tables, table)
		}
		return out, emit(w, out)
	}}
}

// RunAll executes exps in order, writing a header and every table to w,
// and reports whether all of them passed. An experiment's error stops the
// run. Cancelling ctx aborts it between rounds.
func RunAll(ctx context.Context, w io.Writer, exps []Experiment) (bool, error) {
	ok := true
	for _, e := range exps {
		if _, err := fmt.Fprintf(w, "\n%s — %s (%s)\n\n", e.ID, e.Title, e.Paper); err != nil {
			return false, err
		}
		out, err := e.Run(ctx, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", e.ID, err)
		}
		if !out.OK {
			ok = false
		}
	}
	return ok, nil
}

// emit renders an outcome's tables and notes.
func emit(w io.Writer, out *Outcome) error {
	for _, t := range out.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, n := range out.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// softInvariant wraps an invariant so violations are counted instead of
// aborting the run (used by the ablation experiment to measure how often an
// analysis invariant breaks).
func softInvariant(inv sim.Invariant, count *int) sim.Invariant {
	return func(v metrics.View) error {
		if err := inv(v); err != nil {
			*count++
		}
		return nil
	}
}
