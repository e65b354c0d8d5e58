package registry_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/network"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/sim"
)

// reuseStep is one sweep of TestReuseLeavesNothingBehind.
type reuseStep struct {
	name string
	sc   *scenario.Scenario
}

// reuseSteps are sweeps whose cells leave state behind in an engine, in
// handed-back scratch, or could pick up a wrong network: staged packets
// of a phased protocol, bandwidth-axis copies of a memoized network,
// fault models, an adaptive adversary bound to the engine's loads, a
// small path after a big one (under greedy and under ppts) and a tree
// after a path.
func reuseSteps(t *testing.T) []reuseStep {
	t.Helper()
	parse := func(doc string) *scenario.Scenario {
		sc, err := scenario.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	load := func(file string) *scenario.Scenario {
		sc, err := scenario.LoadFile("../../testdata/scenarios/" + file)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// 100 rounds at ℓ = 2 end on an odd round, whose injections are still
	// staged when the next hpts cell starts on the same engine.
	phased := parse(`{"name": "phased", "topology": {"name": "path", "params": {"n": 16}},
		"protocols": [{"name": "ppts"}, {"name": "hpts", "params": {"ell": 2}}],
		"adversary": {"name": "random", "params": {"d": 4}},
		"bound": {"rho": "1/2", "sigma": 2}, "rounds": 100, "seeds": [1, 2, 3, 4]}`)
	bandwidth := load("e12-bandwidth.json")
	bandwidth.Bandwidths = []int{2}
	return []reuseStep{
		{"ppts then hpts", phased},
		{"e12-bandwidth B=2", bandwidth},
		{"faults-lossy", load("faults-lossy.json")},
		{"hotspot", load("hotspot-rate2.json")},
		{"path(4096) then path(16)", parse(`{"name": "sizes",
			"topologies": [{"name": "path", "params": {"n": 4096}}, {"name": "path", "params": {"n": 16}}],
			"protocol": {"name": "greedy-fifo"}, "adversary": {"name": "random", "params": {"d": 4}},
			"bound": {"rho": "1", "sigma": 2}, "rounds": 40}`)},
		// The path(16) cells attach to the scratch, shaper array and random
		// source the path(64) cells handed back, whose destinations index
		// the part of that scratch the path(16) cells use.
		{"ppts path(64) then path(16)", parse(`{"name": "ppts-sizes",
			"topologies": [{"name": "path", "params": {"n": 64}}, {"name": "path", "params": {"n": 16}}],
			"protocol": {"name": "ppts"}, "adversary": {"name": "random", "params": {"d": 8}},
			"bound": {"rho": "1", "sigma": 2}, "rounds": 300, "seeds": [1, 2]}`)},
		{"tree after path", parse(`{"name": "shapes",
			"topologies": [{"name": "path", "params": {"n": 16}}, {"name": "binary", "params": {"height": 3}}],
			"protocol": {"name": "tree-ppts"}, "adversary": {"name": "random", "params": {"d": 2}},
			"bound": {"rho": "1/2", "sigma": 2}, "rounds": 200}`)},
	}
}

// freshResult runs cell c of sc as a sweep does, but on a new engine and
// on a network built afresh, outside the memo.
func freshResult(t *testing.T, sc *scenario.Scenario, c harness.Cell) sim.Result {
	t.Helper()
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for i, comp := range sc.Topologies {
		te, err := registry.LookupTopology(comp.Name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := te.Params.Resolve(comp.Params)
		if err != nil {
			t.Fatal(err)
		}
		sw.Topologies[i].New = func() (*network.Network, error) { return te.Build(p) }
	}
	nw, proto, adv, err := sw.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	var opts []sim.Option
	for _, f := range sw.Faults {
		if f.Name == c.Faults {
			fm, err := f.New(nw, c.Seed)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, sim.WithFaults(fm))
		}
	}
	if sw.VerifyAdversary {
		opts = append(opts, sim.WithVerifyAdversary())
	}
	if sw.Invariants != nil {
		opts = append(opts, sim.WithInvariants(sw.Invariants(c, nw)...))
	}
	if sw.Metrics != nil {
		cs, err := sw.Metrics(c, nw)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, sim.WithMetrics(cs...))
	}
	eng, err := sim.NewEngine(sim.NewSpec(nw, proto, adv, c.Rounds, opts...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runFresh runs sc as one sweep on one worker, so each cell after the
// first runs on the engine the cell before it used, and checks every
// cell's result and record against a fresh engine's on a fresh network.
func runFresh(t *testing.T, name string, sc *scenario.Scenario) *harness.SweepResult {
	t.Helper()
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = 1
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Cells {
		if cr.Err != nil {
			t.Fatalf("%s: %v", name, cr.Err)
		}
		want := freshResult(t, sc, cr.Cell)
		if got, fresh := cr.Record(), (harness.CellResult{Cell: cr.Cell, Result: want}).Record(); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: %v: the record differs from a fresh engine's: max load %d (physical %d), %d delivered; fresh %d (%d), %d",
				name, cr.Cell, got.MaxLoad, got.MaxPhysicalLoad, got.Delivered, fresh.MaxLoad, fresh.MaxPhysicalLoad, fresh.Delivered)
		}
		if !reflect.DeepEqual(cr.Result, want) {
			t.Errorf("%s: %v: the result differs from a fresh engine's on a fresh network", name, cr.Cell)
		}
	}
	return res
}

// memoDigest is the results digest of memoOverflow's sweep, pinned from a
// build that constructed every cell's network afresh.
const memoDigest = "sha256:a9c25b712d07b5552237900f80027049ccddf29f8658ec9058fa22efe4f203b3"

// memoOverflow is a sweep over 17 distinct paths of 4,000–4,016 nodes,
// 68,136 in all: more than the topology memo holds.
func memoOverflow(t *testing.T) (*scenario.Scenario, int) {
	t.Helper()
	var topos []string
	nodes := 0
	for n := 4000; n <= 4016; n++ {
		topos = append(topos, fmt.Sprintf(`{"name": "path", "params": {"n": %d}}`, n))
		nodes += n
	}
	sc, err := scenario.Parse([]byte(`{"name": "memo-overflow", "topologies": [` + strings.Join(topos, ", ") + `],
		"protocol": {"name": "greedy-fifo"}, "adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1", "sigma": 2}, "rounds": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	return sc, nodes
}

// TestReuseLeavesNothingBehind runs cells through consecutive sweeps that
// share the engine pool and the topology memo, in two orders, and checks
// that every cell's result equals a fresh engine's on a freshly built
// network. It also checks the memo: a bandwidth-axis cell leaves the
// memoized network's bandwidths alone, two sizes of one family never share
// an entry, and a sweep over more nodes than the memo holds matches its
// pin, twice in a row.
func TestReuseLeavesNothingBehind(t *testing.T) {
	steps := reuseSteps(t)
	reversed := slices.Clone(steps)
	slices.Reverse(reversed)
	for _, order := range [][]reuseStep{steps, reversed} {
		for _, s := range order {
			runFresh(t, s.name, s.sc)
		}
	}

	path := func(n int) *network.Network {
		build, err := registry.TopologyBuilder("path", registry.Params{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		nw, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	if bw, uniform := path(64).UniformBandwidth(); !uniform || bw != 1 {
		t.Errorf("after B=2 cells the memoized path(64) has bandwidth %d (uniform %v), want 1", bw, uniform)
	}
	p16, p24 := path(16), path(24)
	if p16 == p24 || p16.Len() != 16 || p24.Len() != 24 {
		t.Errorf("path(16) and path(24) share an entry: %d and %d nodes", p16.Len(), p24.Len())
	}
	if path(16) != p16 {
		t.Error("two builds of path(16) return different networks")
	}

	sc, nodes := memoOverflow(t)
	if nodes <= registry.MemoNodes {
		t.Fatalf("the overflow sweep has %d nodes, the memo holds %d: extend it", nodes, registry.MemoNodes)
	}
	for range 2 {
		if got := runFresh(t, "memo-overflow", sc).Digest(); got != memoDigest {
			t.Errorf("memo-overflow digest %s, pinned %s", got, memoDigest)
		}
	}
}

// TestSharedSetupConcurrent runs the reuse steps from several goroutines
// at once, each sweep on two workers, so engines pass between concurrent
// sweeps through the pool and cells race to build the same topologies:
// every digest must equal the one-worker run's.
func TestSharedSetupConcurrent(t *testing.T) {
	steps := reuseSteps(t)
	want := make([]string, len(steps))
	for i, s := range steps {
		want[i] = runFresh(t, s.name, s.sc).Digest()
	}
	var wg sync.WaitGroup
	for range 4 {
		own := reuseSteps(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range own {
				sw, err := s.sc.Sweep()
				if err != nil {
					t.Error(err)
					return
				}
				sw.Workers = 2
				res, err := sw.Run(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Digest(); got != want[i] {
					t.Errorf("%s: concurrent digest %s, one worker's %s", s.name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
