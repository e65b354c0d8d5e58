package registry_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/scenario"
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
func (c *countingView) Accepted() []packet.Packet { c.calls++; return c.View.Accepted() }
func (c *countingView) Moved() []metrics.Move     { c.calls++; return c.View.Moved() }

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
		pe, err := registry.LookupProtocol(c.name)
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
		me, err := registry.LookupMetric(name)
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

// countedProtocol hands its protocol's Decide a countingView and adds up
// the View calls. It passes the phase length on to the engine.
type countedProtocol struct {
	sim.Protocol
	calls int
}

func (p *countedProtocol) PhaseLength() int { return p.Protocol.(sim.PhasedAcceptor).PhaseLength() }

func (p *countedProtocol) Decide(v sim.View) ([]sim.Forward, error) {
	cv := &countingView{View: v.(metrics.View)}
	d, err := p.Protocol.Decide(cv)
	p.calls += cv.calls
	return d, err
}

// countedCollector hands its collector's OnSample a countingView and adds
// up the View calls. Uncounted, it also sums the packets standing at L_t.
type countedCollector struct {
	metrics.Collector
	calls, standing int
}

func (c *countedCollector) OnSample(round int, p metrics.Point, v metrics.View) {
	if p == metrics.LT {
		for _, u := range v.Occupied() {
			c.standing += v.Load(u)
		}
	}
	cv := &countingView{View: v}
	c.Collector.OnSample(round, p, cv)
	c.calls += cv.calls
}

// TestRoundCostAtFullOccupancy is the delta gate. On the two hpts-local
// cells (path(256), random traffic to the last d = 255 nodes, σ = 2, 320
// rounds; hpts at ℓ = 2, ρ = 1/2 and at ℓ = 4, ρ = 1/4) hundreds of
// packets stand buffered while a round changes a dozen or so. HPTS's
// Decide and max_load's OnSample read what the round's delta changed, so
// their View calls per round stay far below what a rescan of every
// occupied buffer makes: 227 and 193 per Decide and 752 and 686 per
// round of OnSample with rescans, 70 and 46 and 41 and 38 with the delta.
func TestRoundCostAtFullOccupancy(t *testing.T) {
	const rounds = 320
	nw := network.MustPath(256)
	cases := []struct {
		ell                  int
		decideMax, sampleMax int
	}{
		{2, 90, 50},
		{4, 60, 50},
	}
	for _, c := range cases {
		pe, err := registry.LookupProtocol("hpts")
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pe.Params.Resolve(map[string]any{"ell": c.ell})
		if err != nil {
			t.Fatal(err)
		}
		proto, err := pe.Build(pp)
		if err != nil {
			t.Fatal(err)
		}
		ae, err := registry.LookupAdversary("random")
		if err != nil {
			t.Fatal(err)
		}
		ap, err := ae.Params.Resolve(map[string]any{"d": 255})
		if err != nil {
			t.Fatal(err)
		}
		bound := adversary.Bound{Rho: rat.New(1, int64(c.ell)), Sigma: 2}
		adv, err := ae.Build(registry.AdversaryContext{Net: nw, Bound: bound, Seed: 1, Rounds: rounds}, ap)
		if err != nil {
			t.Fatal(err)
		}
		me, err := registry.LookupMetric(metrics.NameMaxLoad)
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
		cp, cc := &countedProtocol{Protocol: proto}, &countedCollector{Collector: col}
		if _, err := sim.Run(context.Background(), sim.NewSpec(nw, cp, adv, rounds, sim.WithObservers(cc))); err != nil {
			t.Fatal(err)
		}
		decide, sample, standing := cp.calls/rounds, cc.calls/rounds, cc.standing/rounds
		t.Logf("ℓ=%d: %d packets standing at L_t, %d View calls per Decide, %d per round of OnSample", c.ell, standing, decide, sample)
		if standing < 300 {
			t.Errorf("ℓ=%d: %d packets standing at L_t, want a loaded path of ≥ 300", c.ell, standing)
		}
		if decide > c.decideMax {
			t.Errorf("ℓ=%d: Decide makes %d View calls per round, want ≤ %d", c.ell, decide, c.decideMax)
		}
		if sample > c.sampleMax {
			t.Errorf("ℓ=%d: max_load's OnSample makes %d View calls per round, want ≤ %d", c.ell, sample, c.sampleMax)
		}
	}
}

// cellBytes runs one Sweep.Run of a one-cell grid: the given topology and
// protocol under the random adversary with d = 2, ρ = 1/2, σ = 2 and 200
// rounds, the shape of every fleet-resume cell. It returns the bytes one
// run allocates: the least over 20 runs after a warm-up, with one P.
func cellBytes(t *testing.T, topology string, topoParams map[string]any, protocol string) uint64 {
	t.Helper()
	te, err := registry.LookupTopology(topology)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := te.Params.Resolve(topoParams)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := registry.LookupProtocol(protocol)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pe.Params.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := registry.LookupAdversary("random")
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
			return ae.Build(registry.AdversaryContext{Net: nw, Bound: b, Seed: seed, Rounds: rounds}, ap)
		}}},
		Bounds:  []adversary.Bound{{Rho: rat.New(1, 2), Sigma: 2}},
		Seeds:   []int64{7},
		Rounds:  []int{200},
		Workers: 1,
	}
	return leastBytes(func() {
		res, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
	})
}

// leastBytes returns the bytes one call of run allocates: the least over
// 20 calls after a warm-up, with one P.
func leastBytes(run func()) uint64 {
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

// opBytes returns the bytes one op of a local benchmark workload
// allocates: its scenario documents run one after another on the user
// path, scenario.Parse → Sweep → Run → Digest, each its own sweep (see
// leastBytes).
func opBytes(t *testing.T, docs ...string) uint64 {
	t.Helper()
	return leastBytes(func() {
		for _, doc := range docs {
			sc, err := scenario.Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sc.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if res.Digest() == "" {
				t.Fatal("empty digest")
			}
		}
	})
}

// TestSetupBytes is the byte gate on cell set-up: one op of the
// bigpath-local and of the hpts-local benchmark workload allocates no
// more than with engines pooled across sweeps and each topology built
// once per process (measured with go1.24.0 on linux/amd64). A bigpath op
// is one cell on path(4096) under the random adversary with d = 8, ρ = 1,
// σ = 2 and 40 rounds; an hpts op is two cells in turn on path(256), hpts
// at ℓ = 2, ρ = 1/2 and at ℓ = 4, ρ = 1/4, with d = 255 and 320 rounds.
// Without the pool and the memo, every sweep paid for a fresh engine and
// a fresh network: 684 KB per bigpath greedy-fifo op, 767 KB per bigpath
// ppts op and 412 KB per hpts op. With them, 173 KB, 303 KB and 112 KB.
// Without Result's copy of the per-node maxima and max_load's array
// behind it, 107 KB, 238 KB and 102 KB. With the random adversary's
// source and shaper array and PPTS's scratch handed back at the end of a
// cell and reused by the next, 54 KB, 53 KB and 88 KB. Without the
// engine's per-link forward counters and Result's copy of them, 21 KB,
// 20 KB and 83 KB; the race build allocates up to 6 KB more per op, and
// the limits hold on both.
func TestSetupBytes(t *testing.T) {
	doc := func(n int, protocol string, ell int, d int, rho string, rounds int) string {
		params := ""
		if ell > 0 {
			params = fmt.Sprintf(`, "params": {"ell": %d}`, ell)
		}
		return fmt.Sprintf(`{"name": "setup", "topology": {"name": "path", "params": {"n": %d}},
			"protocol": {"name": %q%s}, "adversary": {"name": "random", "params": {"d": %d}},
			"bound": {"rho": %q, "sigma": 2}, "rounds": %d, "seed": 5}`, n, protocol, params, d, rho, rounds)
	}
	cases := []struct {
		name  string
		docs  []string
		limit uint64
	}{
		{"bigpath greedy-fifo", []string{doc(4096, "greedy-fifo", 0, 8, "1", 40)}, 23_000},
		{"bigpath ppts", []string{doc(4096, "ppts", 0, 8, "1", 40)}, 23_000},
		{"hpts", []string{doc(256, "hpts", 2, 255, "1/2", 320), doc(256, "hpts", 4, 255, "1/4", 320)}, 92_000},
	}
	for _, c := range cases {
		got := opBytes(t, c.docs...)
		t.Logf("%s: %d B per op (limit %d)", c.name, got, c.limit)
		if got > c.limit {
			t.Errorf("%s: one op allocates %d B, want ≤ %d", c.name, got, c.limit)
		}
	}
}
