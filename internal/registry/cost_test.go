package registry

import (
	"context"
	"math"
	"runtime"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// countingView passes every call on to the engine's view and counts it.
type countingView struct {
	metrics.View
	calls int
}

func (c *countingView) Round() int                 { c.calls++; return c.View.Round() }
func (c *countingView) Net() *network.Network      { c.calls++; return c.View.Net() }
func (c *countingView) Occupied() []network.NodeID { c.calls++; return c.View.Occupied() }
func (c *countingView) Load(v network.NodeID) int  { c.calls++; return c.View.Load(v) }
func (c *countingView) Staged(v network.NodeID) int {
	c.calls++
	return c.View.Staged(v)
}
func (c *countingView) Bandwidth(v network.NodeID) int {
	c.calls++
	return c.View.Bandwidth(v)
}
func (c *countingView) Packets(v network.NodeID) []packet.Packet {
	c.calls++
	return c.View.Packets(v)
}
func (c *countingView) StagedPackets() []packet.Packet {
	c.calls++
	return c.View.StagedPackets()
}

// idle forwards nothing, so the packets it is handed stay where they are.
type idle struct{}

func (idle) Name() string                                                     { return "idle" }
func (idle) Attach(*network.Network, adversary.Bound, []network.NodeID) error { return nil }
func (idle) Decide(sim.View) ([]sim.Forward, error)                           { return nil, nil }

// TestRoundCostFollowsOccupancy is the occupancy gate. On path(65536)
// with 32 occupied buffers of one packet each, all bound for the sink, so
// that no pseudo-buffer is bad, one Decide of each protocol and one
// OnSample of each load collector make at most 4 View calls per occupied
// buffer: a round costs O(occupied), not O(n).
func TestRoundCostFollowsOccupancy(t *testing.T) {
	const n, occupied = 1 << 16, 32
	nw := network.MustPath(n)
	sink := network.NodeID(n - 1)
	sched := adversary.NewSchedule()
	for k := range occupied {
		sched.At(0, network.NodeID(k*(n/occupied)), sink)
	}
	bound := adversary.Bound{Rho: rat.One, Sigma: occupied}
	adv := sched.Build(bound)
	eng, err := sim.NewEngine(sim.NewSpec(nw, idle{}, adv, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Occupied()); got != occupied {
		t.Fatalf("%d occupied buffers, want %d", got, occupied)
	}
	const budget = 4 * occupied

	protocols := []struct {
		name   string
		params map[string]any
	}{
		{"greedy-fifo", nil}, {"downhill", nil}, {"oddeven", nil}, {"pts", nil},
		{"ppts", nil}, {"tree-ppts", nil}, {"hpts", map[string]any{"ell": 2}},
	}
	for _, c := range protocols {
		pe, err := LookupProtocol(c.name)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pe.Params.Resolve(c.params)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := pe.Build(pp)
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.Attach(nw, bound, adv.Destinations()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		view := &countingView{View: eng}
		if _, err := proto.Decide(view); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s Decide: %d View calls", c.name, view.calls)
		if view.calls > budget {
			t.Errorf("%s: Decide makes %d View calls, want ≤ %d", c.name, view.calls, budget)
		}
	}

	for _, name := range []string{metrics.NameMaxLoad, metrics.NameLoadSeries, metrics.NameLoadHist, metrics.NameWindowLoad} {
		me, err := LookupMetric(name)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := me.Params.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		col, err := me.Build(mp)
		if err != nil {
			t.Fatal(err)
		}
		view := &countingView{View: eng}
		col.OnSample(eng.Round(), metrics.LT, view)
		t.Logf("%s OnSample: %d View calls", name, view.calls)
		if view.calls > budget {
			t.Errorf("%s: OnSample makes %d View calls, want ≤ %d", name, view.calls, budget)
		}
	}
}

// cellBytes runs one Sweep.Run of a one-cell grid: the given topology and
// protocol under the random adversary with d = 2, ρ = 1/2, σ = 2 and 200
// rounds, the shape of every fleet-resume cell. It returns the bytes one
// run allocates: the least over 20 runs after a warm-up, with one P.
func cellBytes(t *testing.T, topology string, topoParams map[string]any, protocol string) uint64 {
	t.Helper()
	te, err := LookupTopology(topology)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := te.Params.Resolve(topoParams)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := LookupProtocol(protocol)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pe.Params.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := LookupAdversary("random")
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ae.Params.Resolve(map[string]any{"d": 2})
	if err != nil {
		t.Fatal(err)
	}
	sw := &harness.Sweep{
		Protocols:  []harness.ProtocolSpec{{Name: protocol, New: func() (sim.Protocol, error) { return pe.Build(pp) }}},
		Topologies: []harness.TopologySpec{{Name: topology, New: func() (*network.Network, error) { return te.Build(tp) }}},
		Adversaries: []harness.AdversarySpec{{Name: "random", New: func(nw *network.Network, b adversary.Bound, seed int64, rounds int) (adversary.Adversary, error) {
			return ae.Build(AdversaryContext{Net: nw, Bound: b, Seed: seed, Rounds: rounds}, ap)
		}}},
		Bounds:   []adversary.Bound{{Rho: rat.New(1, 2), Sigma: 2}},
		Seeds:    []int64{7},
		Rounds:   []int{200},
		RawSeeds: true,
		Workers:  1,
	}
	run := func() {
		res, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
	}
	// One P keeps the runtime's own allocations (goroutine records) out
	// of the count; the least of several runs drops whatever is left.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCellBytes is the byte gate on tiny cells: one Sweep.Run of each
// fleet-resume cell kind allocates no more than before the occupancy
// index and the segment-tree shaper (measured with go1.24.0 on
// linux/amd64). Their arrays are paid for by set-up that allocates less:
// flat children, no per-node sort, no source lists on a path and exactly
// sized ones on a tree.
func TestCellBytes(t *testing.T) {
	cases := []struct {
		protocol, topology string
		params             map[string]any
		limit              uint64
	}{
		{"greedy-fifo", "path", map[string]any{"n": 16}, 18936},
		{"greedy-fifo", "binary", map[string]any{"height": 3}, 19320},
		{"greedy-fifo", "spider", map[string]any{"arms": 3, "len": 5}, 20552},
		{"tree-ppts", "path", map[string]any{"n": 16}, 23840},
		{"tree-ppts", "binary", map[string]any{"height": 3}, 21760},
		{"tree-ppts", "spider", map[string]any{"arms": 3, "len": 5}, 23312},
	}
	for _, c := range cases {
		got := cellBytes(t, c.topology, c.params, c.protocol)
		t.Logf("%s on %s: %d B per cell (limit %d)", c.protocol, c.topology, got, c.limit)
		if got > c.limit {
			t.Errorf("%s on %s: one cell allocates %d B, want ≤ %d", c.protocol, c.topology, got, c.limit)
		}
	}
}
