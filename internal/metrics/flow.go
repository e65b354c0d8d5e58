package metrics

import (
	"sort"

	"smallbuffers/internal/network"
)

// Registry names of the flow collectors (the fault-aware measurement
// family plus the injection-side concentration probe).
const (
	NameDropRate               = "drop_rate"
	NameGoodput                = "goodput"
	NameDelivery               = "delivery"
	NameInjectionConcentration = "injection_concentration"
)

// permille returns ⌊part·1000/whole⌋, the package's exact integer stand-in
// for a ratio (0 when whole is 0).
func permille(part, whole int) int {
	if whole == 0 {
		return 0
	}
	return part * 1000 / whole
}

// DropRateCollector measures the run's loss process: packets forwarded,
// packets lost in transit, and the per-round drop counts as a bounded
// series. Without a fault model every scalar is zero and the series is
// flat — the collector is fault-aware, not fault-requiring.
type DropRateCollector struct {
	NopObserver
	series     *BoundedSeries
	roundDrops int
	forwards   int
	dropped    int
}

// NewDropRate returns a drop_rate collector bounded to capPoints
// downsampled points and a tailCap-round exact tail, sized for a run of
// rounds rounds.
func NewDropRate(capPoints, tailCap, rounds int) *DropRateCollector {
	return &DropRateCollector{series: NewBoundedSeries("drops", AggSum, capPoints, tailCap, rounds)}
}

// Name implements Collector.
func (c *DropRateCollector) Name() string { return NameDropRate }

// OnForward implements Collector.
func (c *DropRateCollector) OnForward(_ int, moves []Move) {
	c.forwards += len(moves)
	for _, m := range moves {
		if m.Dropped {
			c.roundDrops++
			c.dropped++
		}
	}
}

// OnRoundEnd implements Collector.
func (c *DropRateCollector) OnRoundEnd(int, View) {
	c.series.Append(c.roundDrops)
	c.roundDrops = 0
}

// Summarize implements Collector. drop_permille is ⌊dropped·1000/forwards⌋
// — on cross-run merges it maxes element-wise like any scalar, so an
// aggregate reports the worst per-run loss rate, not a re-derived ratio.
func (c *DropRateCollector) Summarize() Summary {
	return Summary{Name: NameDropRate, Kind: KindSeries,
		Scalars: map[string]int{
			"forwards":      c.forwards,
			"dropped":       c.dropped,
			"drop_permille": permille(c.dropped, c.forwards),
		},
		Series: []SeriesRecord{c.series.Record()}}
}

// GoodputCollector measures delivered-versus-injected flow: exact totals
// plus per-round bounded series of both, so the delivery curve can be laid
// over the injection curve. goodput_permille = ⌊delivered·1000/injected⌋
// is the run's throughput efficiency; under loss it falls below 1000 by
// the residual backlog plus everything the fault model ate.
type GoodputCollector struct {
	NopObserver
	injSeries      *BoundedSeries
	delSeries      *BoundedSeries
	roundInjected  int
	roundDelivered int
	injected       int
	delivered      int
}

// NewGoodput returns a goodput collector bounded to capPoints downsampled
// points and a tailCap-round exact tail per series, sized for a run of
// rounds rounds.
func NewGoodput(capPoints, tailCap, rounds int) *GoodputCollector {
	return &GoodputCollector{
		injSeries: NewBoundedSeries("injected", AggSum, capPoints, tailCap, rounds),
		delSeries: NewBoundedSeries("delivered", AggSum, capPoints, tailCap, rounds),
	}
}

// Name implements Collector.
func (c *GoodputCollector) Name() string { return NameGoodput }

// OnInject implements Collector.
func (c *GoodputCollector) OnInject(_ int, injs []Injection) {
	c.roundInjected += len(injs)
	c.injected += len(injs)
}

// OnForward implements Collector.
func (c *GoodputCollector) OnForward(_ int, moves []Move) {
	for _, m := range moves {
		if m.Delivered {
			c.roundDelivered++
			c.delivered++
		}
	}
}

// OnRoundEnd implements Collector.
func (c *GoodputCollector) OnRoundEnd(int, View) {
	c.injSeries.Append(c.roundInjected)
	c.delSeries.Append(c.roundDelivered)
	c.roundInjected, c.roundDelivered = 0, 0
}

// Summarize implements Collector.
func (c *GoodputCollector) Summarize() Summary {
	return Summary{Name: NameGoodput, Kind: KindSeries,
		Scalars: map[string]int{
			"injected":         c.injected,
			"delivered":        c.delivered,
			"goodput_permille": permille(c.delivered, c.injected),
		},
		Series: []SeriesRecord{c.injSeries.Record(), c.delSeries.Record()}}
}

// DeliveryCollector is the conservation ledger: every injected packet is
// delivered, dropped, or still in flight, and the three counts always sum
// to injected. It is the cheapest way to see where a run's packets went.
type DeliveryCollector struct {
	NopObserver
	injected  int
	delivered int
	dropped   int
}

// NewDelivery returns an empty delivery collector.
func NewDelivery() *DeliveryCollector { return &DeliveryCollector{} }

// Name implements Collector.
func (c *DeliveryCollector) Name() string { return NameDelivery }

// OnInject implements Collector.
func (c *DeliveryCollector) OnInject(_ int, injs []Injection) { c.injected += len(injs) }

// OnForward implements Collector.
func (c *DeliveryCollector) OnForward(_ int, moves []Move) {
	for _, m := range moves {
		switch {
		case m.Delivered:
			c.delivered++
		case m.Dropped:
			c.dropped++
		}
	}
}

// Summarize implements Collector.
func (c *DeliveryCollector) Summarize() Summary {
	return Summary{Name: NameDelivery, Kind: KindScalar,
		Scalars: map[string]int{
			"injected":  c.injected,
			"delivered": c.delivered,
			"dropped":   c.dropped,
			"in_flight": c.injected - c.delivered - c.dropped,
		}}
}

// InjectionConcentrationCollector rides the OnInject hook to profile the
// adversary's spatial pattern: how many distinct sources inject, which
// source receives the most traffic, and what fraction of all injections
// lands there. A burst adversary concentrates near 1000‰ on one node; a
// uniform random one spreads toward 1000/n.
type InjectionConcentrationCollector struct {
	NopObserver
	perSource map[network.NodeID]int
	total     int
}

// NewInjectionConcentration returns an empty injection_concentration
// collector.
func NewInjectionConcentration() *InjectionConcentrationCollector {
	return &InjectionConcentrationCollector{perSource: make(map[network.NodeID]int)}
}

// Name implements Collector.
func (c *InjectionConcentrationCollector) Name() string { return NameInjectionConcentration }

// OnInject implements Collector.
func (c *InjectionConcentrationCollector) OnInject(_ int, injs []Injection) {
	for _, in := range injs {
		c.perSource[in.Src]++
		c.total += 1
	}
}

// Summarize implements Collector. top_source is −1 when nothing was
// injected; ties break to the lowest NodeID so the summary is
// deterministic. The summary anchors top_source on top_count, keeping the
// argmax attributed to the run it occurred in across merges.
func (c *InjectionConcentrationCollector) Summarize() Summary {
	// Iterate sources in sorted order: the argmax itself is
	// order-independent, but digest-path map loops are banned wholesale
	// (detmap), and ascending ids make the lowest-NodeID tie-break fall
	// out of the strict comparison.
	srcs := make([]network.NodeID, 0, len(c.perSource))
	for src := range c.perSource {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	top, topCount := network.NodeID(-1), 0
	for _, src := range srcs {
		if n := c.perSource[src]; n > topCount {
			top, topCount = src, n
		}
	}
	return Summary{Name: NameInjectionConcentration, Kind: KindScalar,
		Anchor: "top_count", Anchored: []string{"top_source"},
		Scalars: map[string]int{
			"total":                  c.total,
			"distinct_sources":       len(c.perSource),
			"top_source":             int(top),
			"top_count":              topCount,
			"concentration_permille": permille(topCount, c.total),
		}}
}
