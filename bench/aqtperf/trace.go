package main

import (
	"path"
	"reflect"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// A traced run times each layer from outside the program: it wraps the
// factories a *harness.Sweep exposes and the values they build, and
// times the public calls it makes into the service, fleet and store
// layers itself. Nothing inside the module is changed or hooked.
//
// Spans are aggregated per (cell, phase) — total duration plus call
// count — rather than recorded per call: a span per round would be
// ~10⁷ spans on served-mix.

// phase names one aggregate span of a cell.
type phase int

const (
	phTopologyNew phase = iota
	phProtocolNew
	phAdversaryNew
	phFaultsNew
	phMetricsNew
	phAttach
	phDecide
	phInject
	phCollect
	nPhases
)

var phaseNames = [nPhases]string{
	"topology.new", "protocol.new", "adversary.new", "faults.new", "metrics.new",
	"protocol.attach", "protocol.decide", "adversary.inject", "metrics.collect",
}

// cellTrace holds one sweep cell's aggregate spans. The cell runs on one
// goroutine (traced sweeps use one worker), and the sweep's channels
// order its writes before the op's reader, so it needs no locking.
type cellTrace struct {
	label      string
	protoLayer string // package of the protocol: core, baseline or local
	start      time.Time
	attach     time.Time // engine span start: the engine attaches first
	last       time.Time // end of the latest traced event
	total      [nPhases]time.Duration
	calls      [nPhases]int
	first      [nPhases]time.Time
}

func (c *cellTrace) record(p phase, start time.Time) {
	now := time.Now()
	if c.calls[p] == 0 {
		c.first[p] = start
	}
	c.total[p] += now.Sub(start)
	c.calls[p]++
	c.last = now
}

// rounds is the number of rounds the cell ran: the engine calls Decide
// once a round.
func (c *cellTrace) rounds() int { return c.calls[phDecide] }

// engine is the cell's engine span: from Attach to the end of its last
// traced call (a collector summary, or the last round's Decide).
func (c *cellTrace) engine() time.Duration {
	if c.attach.IsZero() {
		return 0
	}
	return c.last.Sub(c.attach)
}

// build is the time spent constructing the cell's components.
func (c *cellTrace) build() time.Duration {
	var d time.Duration
	for p := phTopologyNew; p <= phMetricsNew; p++ {
		d += c.total[p]
	}
	return d
}

// clientSpan aggregates the timed calls of one name the benchmark itself
// makes into a layer during one op (a POST, fleet runs, store opens).
type clientSpan struct {
	name  string
	layer string
	start time.Time
	dur   time.Duration
	calls int
}

// opTrace is one request's trace: the cells it ran in process and the
// calls it made into the served layers. A nil *opTrace records nothing,
// so untraced runs share the traced code path.
type opTrace struct {
	id    int
	kind  string
	start time.Time
	dur   time.Duration
	cells []*cellTrace
	spans []clientSpan

	responses  []response
	fleet      []fleetRun
	storeBytes int64
	storeCells int
}

// response is one served reply's size and whether the daemon answered it
// from its cache.
type response struct {
	bytes  int
	cached bool
}

// fleetRun is what one fleet.Run reported about its distribution.
type fleetRun struct {
	wall, ideal, busy           time.Duration
	dispatches, retries, steals int
}

// span adds one call, from start until now, to the op's aggregate span
// of that name.
func (t *opTrace) span(name, layer string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	for i := range t.spans {
		if t.spans[i].name == name {
			t.spans[i].dur += d
			t.spans[i].calls++
			return
		}
	}
	t.spans = append(t.spans, clientSpan{name: name, layer: layer, start: start, dur: d, calls: 1})
}

func (t *opTrace) cur() *cellTrace { return t.cells[len(t.cells)-1] }

// instrument wraps every factory of sw so the cells it runs record into
// t. It forces one sweep worker, so the factories of one cell run back
// to back on one goroutine and each wrapper knows its cell; results do
// not depend on the worker count.
func instrument(sw *harness.Sweep, t *opTrace) {
	sw.Workers = 1
	for i := range sw.Topologies {
		orig := sw.Topologies[i].New
		sw.Topologies[i].New = func() (*network.Network, error) {
			c := &cellTrace{start: time.Now()}
			t.cells = append(t.cells, c)
			nw, err := orig()
			c.record(phTopologyNew, c.start)
			return nw, err
		}
	}
	for i := range sw.Protocols {
		orig := sw.Protocols[i].New
		sw.Protocols[i].New = func() (sim.Protocol, error) {
			c, s := t.cur(), time.Now()
			p, err := orig()
			c.record(phProtocolNew, s)
			if err != nil {
				return nil, err
			}
			return wrapProtocol(p, c), nil
		}
	}
	for i := range sw.Adversaries {
		orig := sw.Adversaries[i].New
		sw.Adversaries[i].New = func(nw *network.Network, b adversary.Bound, seed int64, rounds int) (adversary.Adversary, error) {
			c, s := t.cur(), time.Now()
			a, err := orig(nw, b, seed, rounds)
			c.record(phAdversaryNew, s)
			if err != nil {
				return nil, err
			}
			return wrapAdversary(a, c), nil
		}
	}
	for i := range sw.Faults {
		orig := sw.Faults[i].New
		sw.Faults[i].New = func(nw *network.Network, seed int64) (faults.Model, error) {
			c, s := t.cur(), time.Now()
			m, err := orig(nw, seed)
			c.record(phFaultsNew, s)
			return m, err
		}
	}
	if orig := sw.Metrics; orig != nil {
		sw.Metrics = func(cell harness.Cell, nw *network.Network) ([]metrics.Collector, error) {
			c, s := t.cur(), time.Now()
			cs, err := orig(cell, nw)
			c.record(phMetricsNew, s)
			for i, col := range cs {
				cs[i] = wrapCollector(col, c)
			}
			return cs, err
		}
	}
	// The observer hook is the one that is handed the cell; it labels the
	// cell's trace and adds no observer of its own.
	orig := sw.Observers
	sw.Observers = func(cell harness.Cell, nw *network.Network) []sim.Observer {
		t.cur().label = cell.String()
		if orig == nil {
			return nil
		}
		return orig(cell, nw)
	}
}

// layerOf names the internal package that implements v.
func layerOf(v any) string {
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath())
}

// Each wrapper exposes exactly the optional interfaces of the value it
// wraps: the engine selects behaviour by type assertion, so a wrapper
// that hid sim.PhasedAcceptor or adversary.Adaptive would change the
// run, and one that added them would too. The tests' checks that traced
// digests equal untraced and pinned ones catch either mistake.

type tracedProtocol struct {
	sim.Protocol
	c *cellTrace
}

type tracedPhasedProtocol struct {
	*tracedProtocol
	sim.PhasedAcceptor
}

func wrapProtocol(p sim.Protocol, c *cellTrace) sim.Protocol {
	c.protoLayer = layerOf(p)
	tp := &tracedProtocol{Protocol: p, c: c}
	if pa, ok := p.(sim.PhasedAcceptor); ok {
		return &tracedPhasedProtocol{tp, pa}
	}
	return tp
}

func (t *tracedProtocol) Attach(nw *network.Network, b adversary.Bound, dests []network.NodeID) error {
	s := time.Now()
	t.c.attach = s
	err := t.Protocol.Attach(nw, b, dests)
	t.c.record(phAttach, s)
	return err
}

func (t *tracedProtocol) Decide(v sim.View) ([]sim.Forward, error) {
	s := time.Now()
	f, err := t.Protocol.Decide(v)
	t.c.record(phDecide, s)
	return f, err
}

type tracedAdversary struct {
	adversary.Adversary
	c *cellTrace
}

type tracedHintedAdversary struct {
	*tracedAdversary
	adversary.DestinationHinter
}

type tracedAdaptiveAdversary struct {
	*tracedAdversary
	ad adversary.Adaptive
}

type tracedAdaptiveHintedAdversary struct {
	*tracedAdaptiveAdversary
	adversary.DestinationHinter
}

func wrapAdversary(a adversary.Adversary, c *cellTrace) adversary.Adversary {
	ta := &tracedAdversary{Adversary: a, c: c}
	h, hinted := a.(adversary.DestinationHinter)
	if ad, ok := a.(adversary.Adaptive); ok {
		taa := &tracedAdaptiveAdversary{ta, ad}
		if hinted {
			return &tracedAdaptiveHintedAdversary{taa, h}
		}
		return taa
	}
	if hinted {
		return &tracedHintedAdversary{ta, h}
	}
	return ta
}

func (t *tracedAdversary) Inject(round int) []packet.Injection {
	s := time.Now()
	in := t.Adversary.Inject(round)
	t.c.record(phInject, s)
	return in
}

func (t *tracedAdaptiveAdversary) InjectAdaptive(round int, loads adversary.Loads) []packet.Injection {
	s := time.Now()
	in := t.ad.InjectAdaptive(round, loads)
	t.c.record(phInject, s)
	return in
}

type tracedCollector struct {
	metrics.Collector
	c *cellTrace
}

// wrapCollector leaves the max_load and latency collectors bare: the
// engine type-switches on their concrete types to source Result fields.
func wrapCollector(col metrics.Collector, c *cellTrace) metrics.Collector {
	switch col.(type) {
	case *metrics.MaxLoadCollector, *metrics.LatencyCollector:
		return col
	}
	return &tracedCollector{Collector: col, c: c}
}

func (t *tracedCollector) OnInject(round int, injs []metrics.Injection) {
	s := time.Now()
	t.Collector.OnInject(round, injs)
	t.c.record(phCollect, s)
}

func (t *tracedCollector) OnSample(round int, p metrics.Point, v metrics.View) {
	s := time.Now()
	t.Collector.OnSample(round, p, v)
	t.c.record(phCollect, s)
}

func (t *tracedCollector) OnForward(round int, moves []metrics.Move) {
	s := time.Now()
	t.Collector.OnForward(round, moves)
	t.c.record(phCollect, s)
}

func (t *tracedCollector) OnRoundEnd(round int, v metrics.View) {
	s := time.Now()
	t.Collector.OnRoundEnd(round, v)
	t.c.record(phCollect, s)
}

func (t *tracedCollector) Summarize() metrics.Summary {
	s := time.Now()
	sum := t.Collector.Summarize()
	t.c.record(phCollect, s)
	return sum
}
