package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// acceptanceSweep is the grid from the acceptance criteria: 4 protocols ×
// {path, binary tree} × 4 seeds = 32 cells.
func acceptanceSweep(workers int) *Sweep {
	return &Sweep{
		Protocols: []ProtocolSpec{
			Protocol("TreePTS", func() sim.Protocol { return core.NewTreePTS() }),
			Protocol("TreePPTS", func() sim.Protocol { return core.NewTreePPTS() }),
			Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) }),
			Protocol("LIS", func() sim.Protocol { return baseline.NewGreedy(baseline.LIS{}) }),
		},
		Topologies: []TopologySpec{
			Path(32),
			{Name: "binary(4)", New: func() (*network.Network, error) { return network.BinaryTree(4) }},
		},
		Bounds:      []adversary.Bound{{Rho: rat.One, Sigma: 2}},
		Adversaries: []AdversarySpec{RandomAdversary(nil)},
		Seeds:       []int64{1, 2, 3, 4},
		Rounds:      []int{400},
		BaseSeed:    99,
		Workers:     workers,
	}
}

func TestCellsExpansion(t *testing.T) {
	s := acceptanceSweep(0)
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 32 {
		t.Fatalf("grid size %d, want 32", len(cells))
	}
	seen := make(map[int64]Cell)
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if prev, dup := seen[c.DerivedSeed]; dup {
			t.Errorf("cells %v and %v share derived seed %d", prev, c, c.DerivedSeed)
		}
		if c.DerivedSeed < 0 {
			t.Errorf("negative derived seed on %v", c)
		}
		seen[c.DerivedSeed] = c
	}
}

func TestDeriveSeedStable(t *testing.T) {
	c := Cell{Protocol: "p", Topology: "t", Adversary: "a", Bound: adversary.Bound{Rho: rat.One, Sigma: 1}, Seed: 7}
	if deriveSeed(1, c) != deriveSeed(1, c) {
		t.Error("derivation not deterministic")
	}
	if deriveSeed(1, c) == deriveSeed(2, c) {
		t.Error("base seed ignored")
	}
	c2 := c
	c2.Seed = 8
	if deriveSeed(1, c) == deriveSeed(1, c2) {
		t.Error("grid seed ignored")
	}
}

// The acceptance sweep runs on multiple workers and reproduces exactly at
// any worker count.
func TestSweepReproducibleAcrossWorkerCounts(t *testing.T) {
	parallel, err := acceptanceSweep(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := acceptanceSweep(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*SweepResult{parallel, serial} {
		if r.Requested != 32 || r.Completed != 32 || r.Failed != 0 {
			t.Fatalf("sweep incomplete: %d/%d completed, %d failed (first err: %v)",
				r.Completed, r.Requested, r.Failed, r.FirstErr())
		}
	}
	for i := range parallel.Cells {
		p, s := parallel.Cells[i], serial.Cells[i]
		if p.Cell != s.Cell {
			t.Fatalf("cell %d coordinates differ: %v vs %v", i, p.Cell, s.Cell)
		}
		if p.Result.MaxLoad != s.Result.MaxLoad ||
			p.Result.Injected != s.Result.Injected ||
			p.Result.Delivered != s.Result.Delivered ||
			p.Result.TotalLatency != s.Result.TotalLatency {
			t.Errorf("cell %v not reproducible: %+v vs %+v", p.Cell, p.Result, s.Result)
		}
	}
	if parallel.MaxLoad.Count != 32 || parallel.MaxLoad.Max < 1 {
		t.Errorf("summary not folded: %+v", parallel.MaxLoad)
	}
	if parallel.MaxLoad.Mean != serial.MaxLoad.Mean {
		t.Errorf("summary means differ: %v vs %v", parallel.MaxLoad.Mean, serial.MaxLoad.Mean)
	}
}

// slowProtocol stretches rounds so a sweep is reliably mid-flight when the
// context is cancelled.
type slowProtocol struct {
	inner sim.Protocol
	delay time.Duration
}

func (s *slowProtocol) Name() string { return "slow-" + s.inner.Name() }
func (s *slowProtocol) Attach(nw *network.Network, b adversary.Bound, d []network.NodeID) error {
	return s.inner.Attach(nw, b, d)
}
func (s *slowProtocol) Decide(v sim.View) ([]sim.Forward, error) {
	time.Sleep(s.delay)
	return s.inner.Decide(v)
}

func slowSweep(workers int) *Sweep {
	return &Sweep{
		Protocols: []ProtocolSpec{Protocol("slow", func() sim.Protocol {
			return &slowProtocol{inner: baseline.NewGreedy(baseline.FIFO{}), delay: 200 * time.Microsecond}
		})},
		Topologies:  []TopologySpec{Path(16)},
		Bounds:      []adversary.Bound{{Rho: rat.One, Sigma: 1}},
		Adversaries: []AdversarySpec{RandomAdversary(nil)},
		Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Rounds:      []int{2000},
		Workers:     workers,
	}
}

// Mid-sweep cancellation stops promptly, returns partial results, and does
// not deadlock (the test itself would time out on a deadlock).
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s := slowSweep(2)
	done := make(chan struct{})
	var res *SweepResult
	var err error
	go func() {
		defer close(done)
		res, err = s.Run(ctx)
	}()
	// Let a couple of cells land, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep did not return (deadlock)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Interrupted {
		t.Error("Interrupted not set")
	}
	if len(res.Cells) >= res.Requested {
		t.Errorf("cancelled sweep reports %d of %d cells; expected a strict subset", len(res.Cells), res.Requested)
	}
	// Whatever completed before the cancel is real data.
	for _, c := range res.Cells {
		if c.Err == nil && c.Result.Injected == 0 {
			t.Errorf("completed cell %v carries an empty result", c.Cell)
		}
	}
}

func TestStreamDeliversAllCells(t *testing.T) {
	s := acceptanceSweep(3)
	got := make(map[int]bool)
	for cr := range s.Stream(context.Background()) {
		if cr.Err != nil {
			t.Fatalf("%v: %v", cr.Cell, cr.Err)
		}
		if got[cr.Cell.Index] {
			t.Fatalf("cell %d delivered twice", cr.Cell.Index)
		}
		got[cr.Cell.Index] = true
	}
	if len(got) != 32 {
		t.Errorf("stream delivered %d cells, want 32", len(got))
	}
}

func TestSweepValidation(t *testing.T) {
	cases := map[string]*Sweep{
		"no protocols": {Topologies: []TopologySpec{Path(4)}, Bounds: []adversary.Bound{{Rho: rat.One}},
			Adversaries: []AdversarySpec{RandomAdversary(nil)}, Rounds: []int{10}},
		"no topologies": {Protocols: []ProtocolSpec{Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) })},
			Bounds: []adversary.Bound{{Rho: rat.One}}, Adversaries: []AdversarySpec{RandomAdversary(nil)}, Rounds: []int{10}},
		"no bounds": {Protocols: []ProtocolSpec{Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) })},
			Topologies: []TopologySpec{Path(4)}, Adversaries: []AdversarySpec{RandomAdversary(nil)}, Rounds: []int{10}},
		"no adversaries": {Protocols: []ProtocolSpec{Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) })},
			Topologies: []TopologySpec{Path(4)}, Bounds: []adversary.Bound{{Rho: rat.One}}, Rounds: []int{10}},
		"no rounds": {Protocols: []ProtocolSpec{Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) })},
			Topologies: []TopologySpec{Path(4)}, Bounds: []adversary.Bound{{Rho: rat.One}},
			Adversaries: []AdversarySpec{RandomAdversary(nil)}},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Run(context.Background()); err == nil {
				t.Error("invalid sweep accepted")
			}
		})
	}
	// Duplicate axis names are rejected: cells resolve entries by name.
	dup := acceptanceSweep(1)
	dup.Protocols = append(dup.Protocols, Protocol("FIFO", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) }))
	if _, err := dup.Run(context.Background()); err == nil {
		t.Error("duplicate protocol name accepted")
	}

	// An invalid sweep surfaces its error through Stream as well.
	bad := cases["no rounds"]
	var last CellResult
	for cr := range bad.Stream(context.Background()) {
		last = cr
	}
	if last.Err == nil {
		t.Error("Stream swallowed the validation error")
	}
}

// A failing cell is recorded without aborting the rest of the sweep.
func TestCellFailureIsIsolated(t *testing.T) {
	s := acceptanceSweep(2)
	s.Protocols = append(s.Protocols, ProtocolSpec{Name: "broken", New: func() (sim.Protocol, error) {
		return nil, fmt.Errorf("factory exploded")
	}})
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 8 { // broken × 2 topologies × 4 seeds
		t.Errorf("Failed = %d, want 8", res.Failed)
	}
	if res.Completed != 32 {
		t.Errorf("Completed = %d, want 32", res.Completed)
	}
	if res.FirstErr() == nil {
		t.Error("FirstErr lost the failure")
	}
}

// Per-cell observers and invariants are built fresh for every cell.
func TestPerCellInstrumentation(t *testing.T) {
	counters := make(chan *count, 64)
	s := acceptanceSweep(2)
	s.Seeds = []int64{1}
	s.VerifyAdversary = true
	s.Observers = func(c Cell, nw *network.Network) []sim.Observer {
		cc := &count{}
		counters <- cc
		return []sim.Observer{&roundCounter{c: cc}}
	}
	s.Invariants = func(c Cell, nw *network.Network) []sim.Invariant {
		return []sim.Invariant{func(v metrics.View) error { return nil }}
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d, want 8: %v", res.Completed, res.FirstErr())
	}
	close(counters)
	n := 0
	for cc := range counters {
		n++
		if cc.rounds != 400 {
			t.Errorf("observer saw %d rounds, want 400", cc.rounds)
		}
	}
	if n != 8 {
		t.Errorf("%d observer instances, want 8", n)
	}
}

type count struct{ rounds int }

type roundCounter struct {
	metrics.NopObserver
	c *count
}

func (r *roundCounter) OnRoundEnd(int, metrics.View) { r.c.rounds++ }
