// Package harness is Tier 2 of the execution API: declarative, parallel
// parameter sweeps over the simulation engine.
//
// The paper's results are statements over families of runs — every
// (ρ,σ)-bounded adversary, every level count ℓ, every topology — so the
// natural workload shape is a grid of scenarios, not a single run. A Sweep
// names the axes of that grid (protocols × topologies × bounds ×
// adversaries × bandwidths × seeds × rounds), and the harness executes the cartesian
// product on a bounded worker pool, streaming per-cell results over a
// channel and folding them into an aggregated SweepResult.
//
// Reproducibility is structural: each cell hands its grid seed to its
// adversary and fault model verbatim, never a value drawn from worker
// identity or scheduling, so the same Sweep produces the same per-cell
// results at any worker count. Cancellation is cooperative:
// the engine honors ctx between rounds, so a cancelled sweep stops
// promptly and returns the cells that completed.
package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/freelist"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// ProtocolSpec is one point on the protocol axis. New is a factory because
// protocols are stateful per run: every cell gets a fresh instance.
type ProtocolSpec struct {
	Name string
	New  func() (sim.Protocol, error)
}

// Protocol wraps a stateless constructor as a ProtocolSpec.
func Protocol(name string, mk func() sim.Protocol) ProtocolSpec {
	return ProtocolSpec{Name: name, New: func() (sim.Protocol, error) { return mk(), nil }}
}

// TopologySpec is one point on the topology axis.
type TopologySpec struct {
	Name string
	New  func() (*network.Network, error)
}

// Path returns the path-topology spec on n nodes.
func Path(n int) TopologySpec {
	return TopologySpec{Name: fmt.Sprintf("path(%d)", n), New: func() (*network.Network, error) {
		return network.NewPath(n)
	}}
}

// AdversarySpec is one point on the adversary axis. New receives the cell's
// topology, bound, seed, and horizon (crafted bursts are sized to
// the horizon; randomized patterns consume the seed).
type AdversarySpec struct {
	Name string
	New  func(nw *network.Network, bound adversary.Bound, seed int64, rounds int) (adversary.Adversary, error)
}

// RandomAdversary is the AdversarySpec for the shaped random pattern
// injecting toward dests (the sinks if nil).
func RandomAdversary(dests []network.NodeID) AdversarySpec {
	return AdversarySpec{Name: "random", New: func(nw *network.Network, bound adversary.Bound, seed int64, _ int) (adversary.Adversary, error) {
		return adversary.NewRandom(nw, bound, dests, seed)
	}}
}

// FaultSpec is one point on the fault axis. New receives the cell's
// topology and seed and must return a fresh model already bound
// via Model.Reset — fault models are stateless-per-coordinate but carry
// their seed, and every cell gets its own instance.
type FaultSpec struct {
	Name string
	New  func(nw *network.Network, seed int64) (faults.Model, error)
}

// Cell identifies one point of the sweep grid: the names of its coordinates
// plus the resolved seed and horizon.
type Cell struct {
	// Index is the cell's position in the row-major expansion of the
	// grid — the global ordering contract the distribution tier relies
	// on. For a fixed Sweep the expansion order is: topology (outermost),
	// then protocol, adversary, bound, bandwidth, fault, seed, rounds
	// (innermost) — see Cells — so Index names the same coordinates on
	// every machine, at any worker count, and in any shard. Results
	// stream in completion order and are re-sorted by Index; sharded
	// executions (ShardOffset/ShardCount) keep global indices, so
	// records from disjoint shards of the same grid reassemble by Index
	// alone into exactly the record set of an unsharded run.
	Index     int
	Protocol  string
	Topology  string
	Adversary string
	Bound     adversary.Bound
	// Bandwidth is the uniform link bandwidth imposed on the cell's
	// topology; 0 means "as built" (the topology's own bandwidths).
	Bandwidth int
	// Faults names the cell's fault-axis entry; "" means the loss-free
	// paper model (no fault axis, or none applied).
	Faults string
	// Seed is the grid seed, which the cell's adversary and fault model
	// receive verbatim.
	Seed   int64
	Rounds int
}

// String renders a compact cell label for tables and errors. Optional
// axes (bandwidth, faults) appear only when set, so labels of sweeps that
// never touch them are unchanged.
func (c Cell) String() string {
	mid := ""
	if c.Bandwidth > 0 {
		mid = fmt.Sprintf("/B=%d", c.Bandwidth)
	}
	if c.Faults != "" {
		mid += "/faults=" + c.Faults
	}
	return fmt.Sprintf("%s/%s/%s/%v%s/seed=%d/T=%d", c.Protocol, c.Topology, c.Adversary, c.Bound, mid, c.Seed, c.Rounds)
}

// CellResult pairs a cell with its run outcome. Err is non-nil when the
// cell failed to build or its run aborted (invariant violation, protocol
// error); such cells carry a zero Result.
type CellResult struct {
	Cell   Cell
	Result sim.Result
	Err    error
}

// Sweep is a declarative cartesian grid of simulation runs. Protocols,
// Topologies, Bounds, Adversaries and Rounds are required axes; Seeds
// defaults to {1}.
type Sweep struct {
	Protocols   []ProtocolSpec
	Topologies  []TopologySpec
	Bounds      []adversary.Bound
	Adversaries []AdversarySpec
	Seeds       []int64
	Rounds      []int

	// Bandwidths is the optional link-capacity axis: each entry B ≥ 1 runs
	// the cell's topology with every link's bandwidth set to B. Empty means
	// "as built" (the topologies' own bandwidths, i.e. the paper's B = 1
	// unless a topology spec configured otherwise). Cells differing only
	// in B get the same seed and replay identical traffic, so a bandwidth
	// sweep is a paired comparison of the same demand under different
	// link speeds.
	Bandwidths []int

	// Faults is the optional fault axis: each entry attaches its model to
	// every cell it expands into. Empty means every cell runs the
	// loss-free paper model. Like Bandwidths, cells differing only in the
	// fault entry replay identical traffic, so a fault sweep is a paired
	// comparison of the same demand under different loss processes (a
	// loss-free baseline inside a fault sweep is the drop model at p=0).
	// Fault models draw their schedules from the cell's seed through a
	// domain-separated sub-stream (internal/faults), so attaching one
	// never perturbs the adversary's randomness.
	Faults []FaultSpec

	// ShardOffset and ShardCount restrict execution to the contiguous
	// cell-index range [ShardOffset, ShardOffset+ShardCount) of the
	// row-major expansion; ShardCount == 0 means the whole grid. Cells
	// keep their global Index, so the records of disjoint shards of the
	// same grid reassemble (sorted by index) into exactly the record set
	// — and RecordsDigest — an unsharded run produces. The expansion,
	// seeds, and horizon resolution are identical either way: a shard
	// changes which cells run, never what any cell computes.
	ShardOffset int
	ShardCount  int

	// Workers bounds the worker pool; ≤ 0 means GOMAXPROCS.
	Workers int

	// VerifyAdversary re-checks every cell's injections against the
	// declared (ρ,σ) bound.
	VerifyAdversary bool

	// Observers and Invariants, when set, are called per cell to build the
	// run's instrumentation (fresh per run — observers are stateful).
	Observers  func(c Cell, nw *network.Network) []sim.Observer
	Invariants func(c Cell, nw *network.Network) []sim.Invariant

	// Metrics, when set, builds the per-cell metric collectors (fresh per
	// run — collectors are stateful); their summaries ride each cell's
	// Result.Metrics, the wire records, and the results digest. A build
	// error fails the cell. Unset means the default {max_load, latency}
	// set.
	Metrics func(c Cell, nw *network.Network) ([]metrics.Collector, error)
}

// validate checks the axes before expansion. Axis names must be unique:
// cells reference their axis entries by name, so a duplicate would
// silently execute the wrong spec.
func (s *Sweep) validate() error {
	if len(s.Protocols) == 0 {
		return fmt.Errorf("harness: sweep has no protocols")
	}
	if len(s.Topologies) == 0 {
		return fmt.Errorf("harness: sweep has no topologies")
	}
	if len(s.Bounds) == 0 {
		return fmt.Errorf("harness: sweep has no bounds")
	}
	if len(s.Adversaries) == 0 {
		return fmt.Errorf("harness: sweep has no adversaries")
	}
	names := make(map[string]bool)
	for _, p := range s.Protocols {
		if names["p:"+p.Name] {
			return fmt.Errorf("harness: duplicate protocol name %q", p.Name)
		}
		names["p:"+p.Name] = true
	}
	for _, t := range s.Topologies {
		if names["t:"+t.Name] {
			return fmt.Errorf("harness: duplicate topology name %q", t.Name)
		}
		names["t:"+t.Name] = true
	}
	for _, a := range s.Adversaries {
		if names["a:"+a.Name] {
			return fmt.Errorf("harness: duplicate adversary name %q", a.Name)
		}
		names["a:"+a.Name] = true
	}
	if len(s.Rounds) == 0 {
		return fmt.Errorf("harness: sweep has no rounds")
	}
	for _, b := range s.Bandwidths {
		if b < 1 {
			return fmt.Errorf("harness: bandwidth axis entries must be ≥ 1, got %d", b)
		}
	}
	for _, f := range s.Faults {
		if f.Name == "" || f.New == nil {
			return fmt.Errorf("harness: fault axis entries need a name and a factory")
		}
		if names["f:"+f.Name] {
			return fmt.Errorf("harness: duplicate fault name %q", f.Name)
		}
		names["f:"+f.Name] = true
	}
	if s.ShardOffset < 0 || s.ShardCount < 0 {
		return fmt.Errorf("harness: negative shard range [%d,+%d)", s.ShardOffset, s.ShardCount)
	}
	if s.ShardOffset > 0 && s.ShardCount == 0 {
		return fmt.Errorf("harness: ShardOffset %d without a ShardCount", s.ShardOffset)
	}
	return nil
}

// Cells expands the full grid in row-major order: topology (outermost),
// then protocol, adversary, bound, bandwidth, fault, seed, rounds. This
// order is a contract (see Cell.Index): it is what makes cell indices
// global, so it must never depend on workers, sharding, or scheduling.
// Cells ignores the shard (it always returns the whole expansion; see
// CellsToRun).
func (s *Sweep) Cells() ([]Cell, error) {
	whole := *s
	whole.ShardOffset, whole.ShardCount = 0, 0
	return whole.CellsToRun()
}

// CellsToRun returns the cells of the configured shard (the whole grid
// without one): exactly the cells Stream and Run will execute, in global
// index order. It builds only those cells, each from its global index's
// digits in the grid's mixed radix.
func (s *Sweep) CellsToRun() ([]Cell, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	// The axis lengths in row-major order, outermost first (an empty
	// seeds, bandwidth or fault axis has one entry), and their product,
	// which saturates near math.MaxInt.
	axes := [...]int{len(s.Topologies), len(s.Protocols), len(s.Adversaries), len(s.Bounds),
		max(len(s.Bandwidths), 1), max(len(s.Faults), 1), max(len(s.Seeds), 1), len(s.Rounds)}
	size := 1
	for _, k := range axes {
		size = min(size, math.MaxInt/k) * k
	}
	lo, n := 0, size
	if s.ShardCount != 0 {
		// validate has rejected negative bounds; the sum can overflow.
		if s.ShardCount > size || s.ShardOffset > size-s.ShardCount {
			return nil, fmt.Errorf("harness: shard [%d,+%d) exceeds the %d-cell grid", s.ShardOffset, s.ShardCount, size)
		}
		lo, n = s.ShardOffset, s.ShardCount
	}
	cells := make([]Cell, n)
	for i := range cells {
		var at [len(axes)]int
		for a, rest := len(axes)-1, lo+i; a >= 0; a-- {
			at[a], rest = rest%axes[a], rest/axes[a]
		}
		c := Cell{Index: lo + i, Topology: s.Topologies[at[0]].Name, Protocol: s.Protocols[at[1]].Name,
			Adversary: s.Adversaries[at[2]].Name, Bound: s.Bounds[at[3]], Seed: 1, Rounds: s.Rounds[at[7]]}
		if len(s.Bandwidths) > 0 {
			c.Bandwidth = s.Bandwidths[at[4]]
		}
		if len(s.Faults) > 0 {
			c.Faults = s.Faults[at[5]].Name
		}
		if len(s.Seeds) > 0 {
			c.Seed = s.Seeds[at[6]]
		}
		cells[i] = c
	}
	return cells, nil
}

// Stream executes the sweep (or its configured shard) on the worker pool
// and streams per-cell results in completion order. The channel closes
// when every cell has been executed or ctx is cancelled; after
// cancellation the engine stops in-flight runs at the next round boundary
// and undispatched cells are dropped. Build errors (invalid axes) surface
// as a single CellResult with Err set.
//
// Callers must either drain the channel or cancel ctx: abandoning the
// range loop with a live context leaves the workers blocked on their next
// send.
func (s *Sweep) Stream(ctx context.Context) <-chan CellResult {
	cells, err := s.CellsToRun()
	if err != nil {
		out := make(chan CellResult)
		go func() {
			defer close(out)
			select {
			case out <- CellResult{Err: err}:
			case <-ctx.Done():
			}
		}()
		return out
	}
	return s.stream(ctx, cells)
}

// engines holds the idle engines of finished sweep workers, released so
// they pin no run (see sim.Engine.Release), each sized by its node count.
var engines freelist.List[*sim.Engine]

// stream fans the pre-expanded cells out to the worker pool.
func (s *Sweep) stream(ctx context.Context, cells []Cell) <-chan CellResult {
	out := make(chan CellResult)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	jobs := make(chan Cell)
	go func() {
		defer close(jobs)
		for _, c := range cells {
			select {
			case jobs <- c:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine per worker, reused across that worker's cells and,
			// through the free list, across sweeps: the storage a cell grew
			// serves the next cell of any sweep in the process.
			eng, _ := engines.Get()
			defer func() {
				if eng != nil {
					eng.Release()
					engines.Put(eng, eng.Nodes())
				}
			}()
			for c := range jobs {
				res := s.runCell(ctx, &eng, c)
				select {
				case out <- res:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Build materializes one cell: its topology with the cell's bandwidth
// imposed, a fresh protocol and a fresh adversary, as the cell's run
// gets them.
func (s *Sweep) Build(c Cell) (*network.Network, sim.Protocol, adversary.Adversary, error) {
	proto, topo, adv, err := s.lookup(c)
	if err != nil {
		return nil, nil, nil, err
	}
	nw, err := topo.New()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: %v: topology: %w", c, err)
	}
	if c.Bandwidth > 0 {
		nw, err = nw.WithBandwidths(network.WithUniformBandwidth(c.Bandwidth))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("harness: %v: bandwidth: %w", c, err)
		}
	}
	p, err := proto.New()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: %v: protocol: %w", c, err)
	}
	a, err := adv.New(nw, c.Bound, c.Seed, c.Rounds)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: %v: adversary: %w", c, err)
	}
	return nw, p, a, nil
}

// releaser is a protocol or adversary holding pooled scratch, which it
// hands back once its cell has ended (core.PPTS, adversary.Random).
type releaser interface{ Release() }

// runCell builds one cell and executes it, reusing the worker's engine
// when possible.
func (s *Sweep) runCell(ctx context.Context, eng **sim.Engine, c Cell) CellResult {
	nw, p, a, err := s.Build(c)
	if err != nil {
		return CellResult{Cell: c, Err: err}
	}
	defer func() {
		if r, ok := p.(releaser); ok {
			r.Release()
		}
		if r, ok := a.(releaser); ok {
			r.Release()
		}
	}()
	opts := make([]sim.Option, 0, 5)
	if c.Faults != "" {
		var fs *FaultSpec
		for i := range s.Faults {
			if s.Faults[i].Name == c.Faults {
				fs = &s.Faults[i]
				break
			}
		}
		if fs == nil {
			return CellResult{Cell: c, Err: fmt.Errorf("harness: cell %v names unknown fault entry %q", c, c.Faults)}
		}
		fm, err := fs.New(nw, c.Seed)
		if err != nil {
			return CellResult{Cell: c, Err: fmt.Errorf("harness: %v: faults: %w", c, err)}
		}
		opts = append(opts, sim.WithFaults(fm))
	}
	if s.VerifyAdversary {
		opts = append(opts, sim.WithVerifyAdversary())
	}
	if s.Observers != nil {
		opts = append(opts, sim.WithObservers(s.Observers(c, nw)...))
	}
	if s.Invariants != nil {
		opts = append(opts, sim.WithInvariants(s.Invariants(c, nw)...))
	}
	if s.Metrics != nil {
		cs, err := s.Metrics(c, nw)
		if err != nil {
			return CellResult{Cell: c, Err: fmt.Errorf("harness: %v: metrics: %w", c, err)}
		}
		opts = append(opts, sim.WithMetrics(cs...))
	}
	spec := sim.NewSpec(nw, p, a, c.Rounds, opts...)

	if *eng == nil {
		e, err := sim.NewEngine(spec)
		if err != nil {
			return CellResult{Cell: c, Err: fmt.Errorf("harness: %v: %w", c, err)}
		}
		*eng = e
	} else if err := (*eng).Reset(spec); err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("harness: %v: %w", c, err)}
	}
	res, err := (*eng).Run(ctx)
	if err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("harness: %v: %w", c, err)}
	}
	return CellResult{Cell: c, Result: res}
}

// lookup resolves a cell's axis entries by name.
func (s *Sweep) lookup(c Cell) (ProtocolSpec, TopologySpec, AdversarySpec, error) {
	var proto ProtocolSpec
	var topo TopologySpec
	var adv AdversarySpec
	found := 0
	for _, p := range s.Protocols {
		if p.Name == c.Protocol {
			proto = p
			found++
			break
		}
	}
	for _, t := range s.Topologies {
		if t.Name == c.Topology {
			topo = t
			found++
			break
		}
	}
	for _, a := range s.Adversaries {
		if a.Name == c.Adversary {
			adv = a
			found++
			break
		}
	}
	if found != 3 {
		return proto, topo, adv, fmt.Errorf("harness: cell %v names unknown axis entries", c)
	}
	return proto, topo, adv, nil
}

// SweepResult aggregates a sweep: the per-cell results (sorted by cell
// index) plus numeric summaries over the cells that ran cleanly.
type SweepResult struct {
	// Cells holds one entry per executed cell, ordered by Cell.Index.
	// Cancelled sweeps carry only the cells that completed.
	Cells []CellResult
	// Requested is the grid size; Completed counts cells that ran cleanly;
	// Failed counts cells whose Err is set.
	Requested int
	Completed int
	Failed    int
	// Interrupted is true when the sweep was cut short by cancellation.
	Interrupted bool

	// MaxLoad summarizes the clean cells' max loads (mean/max/percentiles
	// via stats.Summary).
	MaxLoad stats.Summary

	// Metrics aggregates the clean cells' metric summaries per collector
	// name (see metrics.Fold: histograms merge bucket-wise with re-derived
	// quantiles, scalars merge by maximum except anchored argmax groups,
	// whose ties go to the lower cell index, and series drop).
	Metrics map[string]metrics.Summary
}

// FirstErr returns the lowest-indexed cell error, or nil.
func (r *SweepResult) FirstErr() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Run executes the sweep and aggregates every streamed cell. On
// cancellation it returns the partial SweepResult together with ctx's
// error; per-cell failures do not abort the sweep (they are recorded on
// the cells and counted in Failed).
func (s *Sweep) Run(ctx context.Context) (*SweepResult, error) {
	cells, err := s.CellsToRun()
	if err != nil {
		return nil, err
	}
	agg := &SweepResult{Requested: len(cells)}
	var fold metrics.Fold
	for cr := range s.stream(ctx, cells) {
		agg.Cells = append(agg.Cells, cr)
		if cr.Err != nil {
			agg.Failed++
			continue
		}
		agg.Completed++
		agg.MaxLoad.AddInt(cr.Result.MaxLoad)
		// The fold takes cells in completion order and resolves anchor
		// ties by cell index, as the service and the fleet do.
		fold.Add(cr.Cell.Index, metrics.Records(cr.Result.Metrics)...)
	}
	sort.Slice(agg.Cells, func(i, j int) bool { return agg.Cells[i].Cell.Index < agg.Cells[j].Cell.Index })
	// One collector per name per cell, so same-name summaries fold
	// cleanly; a kind clash would mean mixed kinds under one name, which
	// the registry rules out — drop the aggregate rather than the sweep.
	if fold.Err() == nil {
		agg.Metrics = fold.Map()
	}
	if err := ctx.Err(); err != nil {
		agg.Interrupted = true
		return agg, err
	}
	return agg, nil
}
