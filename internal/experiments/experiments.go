// Package experiments defines the reproduction suite: one executable
// experiment per theorem/figure of the paper, each printing a table of
// parameters, measured values, and the paper's predicted bound. The
// cmd/aqtbench binary and the repository's benchmarks run these; their
// output is the source for EXPERIMENTS.md.
//
// Index (see DESIGN.md §4 for the full mapping):
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

	"smallbuffers/internal/metrics"
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

// All returns the full suite in presentation order.
func All() []Experiment {
	return []Experiment{
		Figure1(),
		E1PTS(),
		E2PPTS(),
		E3Trees(),
		E4HPTS(),
		E5LowerBound(),
		E6Tradeoff(),
		E7Greedy(),
		E8Ablations(),
		E9Exact(),
		E10Locality(),
		E11Latency(),
		E12Bandwidth(),
		E13Faults(),
	}
}

// ByID finds an experiment by its identifier ("E1" … "E13", "F1").
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
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
