package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestAllRegistered(t *testing.T) {
	all := All()
	wantIDs := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	if len(all) != len(wantIDs) {
		t.Fatalf("All() = %d experiments, want %d", len(all), len(wantIDs))
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d has ID %q, want %q", i, e.ID, wantIDs[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete definition", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E4")
	if err != nil || e.ID != "E4" {
		t.Errorf("ByID(E4) = %v, %v", e.ID, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("ByID(E99) succeeded")
	}
}

// Each experiment runs green and asserts its own bounds. The fast ones run
// in any mode; the heavier sweeps are guarded by -short.
func TestExperimentsPass(t *testing.T) {
	fast := map[string]bool{"F1": true, "E9": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && !fast[e.ID] {
				t.Skip("heavy sweep; run without -short")
			}
			// Experiments share no state, and the heaviest (E6) runs on one
			// core, so they overlap.
			t.Parallel()
			var buf bytes.Buffer
			out, err := e.Run(context.Background(), &buf)
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", e.ID, err, buf.String())
			}
			if !out.OK {
				t.Errorf("%s reports violated bounds:\n%s", e.ID, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

// TestRunAllAggregates checks RunAll's fold on two real experiments and
// two stubs; TestExperimentsPass runs the whole suite.
func TestRunAllAggregates(t *testing.T) {
	ctx := context.Background()
	var fast []Experiment
	for _, id := range []string{"F1", "E9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		fast = append(fast, e)
	}
	ran := 0
	stub := func(id string, ok bool, err error) Experiment {
		return Experiment{ID: id, Title: "stub", Paper: "none", Run: func(context.Context, io.Writer) (*Outcome, error) {
			ran++
			if err != nil {
				return nil, err
			}
			return &Outcome{OK: ok}, nil
		}}
	}

	var buf bytes.Buffer
	ok, err := RunAll(ctx, &buf, fast)
	if err != nil || !ok {
		t.Fatalf("RunAll(F1, E9) = %v, %v; want true, nil", ok, err)
	}
	for _, want := range []string{"\nF1 — ", "\nE9 — "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks the %q header", want)
		}
	}

	// A violated bound fails the suite but does not stop it.
	ok, err = RunAll(ctx, io.Discard, []Experiment{stub("X1", false, nil), fast[1], stub("X2", true, nil)})
	if err != nil || ok || ran != 2 {
		t.Errorf("RunAll with a failing stub = %v, %v after %d stubs; want false, nil after 2", ok, err, ran)
	}

	// An error stops the suite, wrapped with the experiment's ID.
	ran = 0
	boom := errors.New("boom")
	ok, err = RunAll(ctx, io.Discard, []Experiment{stub("X3", true, nil), stub("X4", true, boom), stub("X5", true, nil)})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "X4: ") || ok || ran != 2 {
		t.Errorf("RunAll with an erroring stub = %v, %v after %d stubs; want false, X4: boom after 2", ok, err, ran)
	}
}

func TestFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	f1, err := ByID("F1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := f1.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Error("F1 not OK")
	}
	text := buf.String()
	for _, want := range []string{"n = 16, m = 2, ℓ = 4", "0000", "1111", "virtual trajectory"} {
		if !strings.Contains(text, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, text)
		}
	}
}
