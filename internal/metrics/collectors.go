package metrics

import "smallbuffers/internal/network"

// Registry names of the built-in collectors.
const (
	NameMaxLoad        = "max_load"
	NameLoadSeries     = "load_series"
	NameLoadHist       = "load_hist"
	NameLatency        = "latency"
	NameLinkUtilSeries = "link_util_series"
)

// MaxLoadCollector reproduces the engine's historical headline scalars:
// the maximum visible occupancy over all rounds and nodes (sampled at L_t
// and post-forwarding), the first node/round attaining it, and the
// physical maximum including staged packets. It is the source of
// Result.MaxLoad and friends — always on, whether selected or not.
type MaxLoadCollector struct {
	NopObserver
	maxLoad     int
	node        network.NodeID
	round       int
	maxPhysical int
}

// NewMaxLoad returns an empty max_load collector.
func NewMaxLoad() *MaxLoadCollector { return &MaxLoadCollector{} }

// Name implements Collector.
func (c *MaxLoadCollector) Name() string { return NameMaxLoad }

// OnSample implements Collector: fold the configuration's occupancies
// into the maxima. Only a buffer the round's delta grew can beat the
// incumbent (see View.Accepted), so a sample visits those alone — at L_t
// the sources of the accepted packets, post-forwarding the receivers of
// the moves that arrived — and costs O(delta), not O(occupied). It takes
// the sample's largest load, the lowest node on ties, and replaces the
// incumbent only when that load is strictly greater: the first maximum
// (lowest round, then lowest node), exactly what an ascending scan of
// every buffer names. Nodes holding staged packets are found through the
// staged packets.
func (c *MaxLoadCollector) OnSample(round int, p Point, v View) {
	best, at := 0, network.NodeID(0)
	visit := func(u network.NodeID) {
		load := v.Load(u)
		if load > best || load == best && u < at {
			best, at = load, u
		}
		c.maxPhysical = max(c.maxPhysical, load+v.Staged(u))
	}
	if p == LT {
		for _, pk := range v.Accepted() {
			visit(pk.Src)
		}
	} else {
		for _, m := range v.Moved() {
			if !m.Delivered && !m.Dropped {
				visit(m.To)
			}
		}
	}
	if best > c.maxLoad {
		c.maxLoad, c.node, c.round = best, at, round
	}
	for _, pk := range v.StagedPackets() {
		c.maxPhysical = max(c.maxPhysical, v.Load(pk.Src)+v.Staged(pk.Src))
	}
}

// MaxLoad returns the maximum visible occupancy so far.
func (c *MaxLoadCollector) MaxLoad() int { return c.maxLoad }

// MaxLoadNode returns the node of the first maximum.
func (c *MaxLoadCollector) MaxLoadNode() network.NodeID { return c.node }

// MaxLoadRound returns the round of the first maximum.
func (c *MaxLoadCollector) MaxLoadRound() int { return c.round }

// MaxPhysicalLoad returns the maximum occupancy including staged packets.
func (c *MaxLoadCollector) MaxPhysicalLoad() int { return c.maxPhysical }

// Summarize implements Collector. The summary anchors node/round on
// max_load, so cross-run merges keep the argmax position attributed to
// the run the grid maximum actually occurred in; max_physical_load is an
// independent maximum and merges element-wise.
func (c *MaxLoadCollector) Summarize() Summary {
	return Summary{Name: NameMaxLoad, Kind: KindScalar,
		Anchor: "max_load", Anchored: []string{"max_load_node", "max_load_round"},
		Scalars: map[string]int{
			"max_load":          c.maxLoad,
			"max_load_node":     int(c.node),
			"max_load_round":    c.round,
			"max_physical_load": c.maxPhysical,
		}}
}

// LoadSeriesCollector records occupancy behavior over time as two bounded
// series: "max" (the per-round maximum node occupancy, over both sample
// points) and "total" (the visible L_t occupancy summed over nodes).
// Memory stays O(cap) regardless of the horizon — small buffers for the
// simulator itself.
type LoadSeriesCollector struct {
	NopObserver
	maxSeries   *BoundedSeries
	totalSeries *BoundedSeries
	roundMax    int
	roundTotal  int
}

// NewLoadSeries returns a load_series collector bounded to capPoints
// downsampled points and a tailCap-round exact tail per series.
func NewLoadSeries(capPoints, tailCap int) *LoadSeriesCollector {
	return &LoadSeriesCollector{
		maxSeries:   NewBoundedSeries("max", AggMax, capPoints, tailCap),
		totalSeries: NewBoundedSeries("total", AggMax, capPoints, tailCap),
	}
}

// Name implements Collector.
func (c *LoadSeriesCollector) Name() string { return NameLoadSeries }

// OnSample implements Collector.
func (c *LoadSeriesCollector) OnSample(_ int, p Point, v View) {
	total := 0
	for _, u := range v.Occupied() {
		load := v.Load(u)
		c.roundMax = max(c.roundMax, load)
		total += load
	}
	if p == LT {
		c.roundTotal = total
	}
}

// OnRoundEnd implements Collector: finalize the round's points.
func (c *LoadSeriesCollector) OnRoundEnd(int, View) {
	c.maxSeries.Append(c.roundMax)
	c.totalSeries.Append(c.roundTotal)
	c.roundMax, c.roundTotal = 0, 0
}

// Summarize implements Collector.
func (c *LoadSeriesCollector) Summarize() Summary {
	return Summary{Name: NameLoadSeries, Kind: KindSeries,
		Series: []SeriesRecord{c.maxSeries.Record(), c.totalSeries.Record()}}
}

// LoadHistCollector accumulates the occupancy distribution: every node's
// visible load at the paper's measurement point L_t, every round — n·T
// samples in O(1) memory. Where the max_load collector answers "how bad
// did it get", the histogram answers "how bad is it usually" (the lens
// of the buffer-sizing literature).
type LoadHistCollector struct {
	NopObserver
	hist *Hist
}

// NewLoadHist returns an empty load_hist collector.
func NewLoadHist() *LoadHistCollector { return &LoadHistCollector{hist: NewHist()} }

// Name implements Collector.
func (c *LoadHistCollector) Name() string { return NameLoadHist }

// OnSample implements Collector: fold every node's L_t occupancy, the
// empty nodes as one count of zeros (a histogram does not depend on the
// order of its observations).
func (c *LoadHistCollector) OnSample(_ int, p Point, v View) {
	if p != LT {
		return
	}
	occupied := v.Occupied()
	for _, u := range occupied {
		c.hist.Add(v.Load(u))
	}
	c.hist.addZeros(v.Net().Len() - len(occupied))
}

// Summarize implements Collector.
func (c *LoadHistCollector) Summarize() Summary {
	rec := c.hist.Record()
	return Summary{Name: NameLoadHist, Kind: KindHist, Hist: rec, Scalars: map[string]int{
		"p50": rec.Quantile(50),
		"p90": rec.Quantile(90),
		"p99": rec.Quantile(99),
	}}
}

// LatencyCollector accumulates the delivery-latency distribution
// (delivery round − injection round, per delivered packet) with exact
// count/sum/max and histogram-derived percentiles. It is the source of
// Result.MaxLatency and Result.TotalLatency — always on, whether
// selected or not.
//
// An optional exact window (NewLatencyWindowed) additionally tracks the
// last N rounds of deliveries — recent count/sum/max and the windowed
// mean in per-mille — plus an exponentially decayed maximum of rounds
// that have aged out, the same recent-history lens window_load applies
// to occupancy. With the window off the collector is byte-identical to
// its unwindowed form.
type LatencyCollector struct {
	NopObserver
	hist *Hist

	// Window state, all nil/zero when the window is disabled. The three
	// rings hold per-round delivery count, latency sum, and latency max.
	cntWin        *window
	sumWin        *window
	maxWin        *window
	decayPermille int
	roundCount    int
	roundSum      int
	roundMax      int
	decayedMillis int // fixed-point (×1000) decayed max of evicted rounds
}

// NewLatency returns an empty latency collector.
func NewLatency() *LatencyCollector { return &LatencyCollector{hist: NewHist()} }

// NewLatencyWindowed returns a latency collector that also keeps an
// exact window over the last windowRounds rounds, with the beyond-window
// decayed maximum retaining decayPermille/1000 per subsequent round.
// windowRounds < 1 disables the window entirely (identical to
// NewLatency). The window scalars are per-run views: cross-cell merges
// re-derive hist summaries from the merged buckets and drop them.
func NewLatencyWindowed(windowRounds, decayPermille int) *LatencyCollector {
	c := NewLatency()
	if windowRounds < 1 {
		return c
	}
	if decayPermille < 0 {
		decayPermille = 0
	}
	if decayPermille > 1000 {
		decayPermille = 1000
	}
	c.cntWin = newWindow(windowRounds)
	c.sumWin = newWindow(windowRounds)
	c.maxWin = newWindow(windowRounds)
	c.decayPermille = decayPermille
	return c
}

// Name implements Collector.
func (c *LatencyCollector) Name() string { return NameLatency }

// OnForward implements Collector: fold delivered moves.
func (c *LatencyCollector) OnForward(round int, moves []Move) {
	for _, m := range moves {
		if m.Delivered {
			lat := round - m.Pkt.Inject
			c.hist.Add(lat)
			if c.cntWin != nil {
				c.roundCount++
				c.roundSum += lat
				if lat > c.roundMax {
					c.roundMax = lat
				}
			}
		}
	}
}

// OnRoundEnd implements Collector: with the window on, the round's
// delivery stats enter the rings and whatever the max ring evicts decays
// into the tail (same fixed-point rule as window_load).
func (c *LatencyCollector) OnRoundEnd(int, View) {
	if c.cntWin == nil {
		return
	}
	c.cntWin.push(c.roundCount)
	c.sumWin.push(c.roundSum)
	if old, evicted := c.maxWin.push(c.roundMax); evicted {
		c.decayedMillis = max(c.decayedMillis*c.decayPermille/1000, old*1000)
	}
	c.roundCount, c.roundSum, c.roundMax = 0, 0, 0
}

// Count returns the number of recorded deliveries.
func (c *LatencyCollector) Count() int { return c.hist.Count() }

// MaxLatency returns the exact maximum delivery latency.
func (c *LatencyCollector) MaxLatency() int { return c.hist.Max() }

// TotalLatency returns the exact sum of delivery latencies.
func (c *LatencyCollector) TotalLatency() int { return c.hist.Sum() }

// Quantile returns the p-th latency percentile, p an integer percent
// (see HistRecord.Quantile).
func (c *LatencyCollector) Quantile(p int) int { return c.hist.Quantile(p) }

// Summarize implements Collector. With the window on, the window_*
// scalars cover deliveries in the last window_rounds rounds exactly
// (window_mean_millis is the windowed mean latency ×1000) and
// decayed_max_millis is the ×1000 decayed maximum of everything older.
func (c *LatencyCollector) Summarize() Summary {
	rec := c.hist.Record()
	scalars := map[string]int{
		"count": rec.Count,
		"sum":   rec.Sum,
		"max":   rec.Max,
		"p50":   rec.Quantile(50),
		"p90":   rec.Quantile(90),
		"p99":   rec.Quantile(99),
	}
	if c.cntWin != nil {
		scalars["window"] = len(c.cntWin.buf)
		scalars["window_rounds"] = c.cntWin.n
		scalars["window_count"] = c.cntWin.sum
		scalars["window_sum"] = c.sumWin.sum
		scalars["window_max"] = c.maxWin.max()
		scalars["window_mean_millis"] = permille(c.sumWin.sum, c.cntWin.sum)
		scalars["decayed_max_millis"] = c.decayedMillis
	}
	return Summary{Name: NameLatency, Kind: KindHist, Hist: rec, Scalars: scalars}
}

// LinkUtilCollector records link activity over time: a bounded "forwards"
// series (packets forwarded per round, summed when downsampled, so every
// point is an exact interval total) plus the busiest link by utilization
// (total forwards relative to the link's rounds × bandwidth budget; ties
// break to the lowest NodeID).
//
// An optional exact window (NewLinkUtilSeriesWindowed) additionally
// tracks forwards over the last N rounds plus a decayed maximum of
// older rounds. With the window off the collector is byte-identical to
// its unwindowed form.
type LinkUtilCollector struct {
	NopObserver
	series        *BoundedSeries
	roundForwards int
	perLink       []int
	bandwidths    []int
	hasLink       []bool

	// Window state, nil/zero when the window is disabled.
	fwdWin        *window
	decayPermille int
	decayedMillis int // fixed-point (×1000) decayed max of evicted rounds
}

// NewLinkUtilSeries returns a link_util_series collector bounded to
// capPoints downsampled points and a tailCap-round exact tail.
func NewLinkUtilSeries(capPoints, tailCap int) *LinkUtilCollector {
	return &LinkUtilCollector{series: NewBoundedSeries("forwards", AggSum, capPoints, tailCap)}
}

// NewLinkUtilSeriesWindowed returns a link_util_series collector that
// also keeps an exact per-round forwards window over the last
// windowRounds rounds, with the beyond-window decayed maximum retaining
// decayPermille/1000 per subsequent round. windowRounds < 1 disables
// the window entirely (identical to NewLinkUtilSeries).
func NewLinkUtilSeriesWindowed(capPoints, tailCap, windowRounds, decayPermille int) *LinkUtilCollector {
	c := NewLinkUtilSeries(capPoints, tailCap)
	if windowRounds < 1 {
		return c
	}
	if decayPermille < 0 {
		decayPermille = 0
	}
	if decayPermille > 1000 {
		decayPermille = 1000
	}
	c.fwdWin = newWindow(windowRounds)
	c.decayPermille = decayPermille
	return c
}

// Name implements Collector.
func (c *LinkUtilCollector) Name() string { return NameLinkUtilSeries }

// OnSample implements Collector: capture the link structure once.
func (c *LinkUtilCollector) OnSample(_ int, p Point, v View) {
	if c.perLink != nil || p != LT {
		return
	}
	n := v.Net().Len()
	c.perLink = make([]int, n)
	c.bandwidths = make([]int, n)
	c.hasLink = make([]bool, n)
	for u := 0; u < n; u++ {
		if v.Net().Next(network.NodeID(u)) != network.None {
			c.hasLink[u] = true
			c.bandwidths[u] = v.Bandwidth(network.NodeID(u))
		}
	}
}

// OnForward implements Collector.
func (c *LinkUtilCollector) OnForward(_ int, moves []Move) {
	c.roundForwards += len(moves)
	for _, m := range moves {
		if int(m.From) < len(c.perLink) {
			c.perLink[m.From]++
		}
	}
}

// OnRoundEnd implements Collector.
func (c *LinkUtilCollector) OnRoundEnd(int, View) {
	c.series.Append(c.roundForwards)
	if c.fwdWin != nil {
		if old, evicted := c.fwdWin.push(c.roundForwards); evicted {
			c.decayedMillis = max(c.decayedMillis*c.decayPermille/1000, old*1000)
		}
	}
	c.roundForwards = 0
}

// Summarize implements Collector. busiest_link is −1 when the topology
// has no links or nothing was forwarded. The summary anchors the
// busiest-link identity on busiest_forwards, so cross-run merges report
// one coherent link picture (the run with the most-loaded busiest link)
// while total_forwards merges element-wise.
func (c *LinkUtilCollector) Summarize() Summary {
	busiest, total := -1, 0
	for u, f := range c.perLink {
		total += f
		if f == 0 || !c.hasLink[u] {
			continue
		}
		// Compare utilizations f/B exactly by cross-multiplication (the
		// shared rounds factor cancels); strict inequality keeps the
		// lowest NodeID on ties.
		if busiest < 0 || f*c.bandwidths[busiest] > c.perLink[busiest]*c.bandwidths[u] {
			busiest = u
		}
	}
	scalars := map[string]int{
		"busiest_link":   busiest,
		"total_forwards": total,
	}
	if busiest >= 0 {
		scalars["busiest_forwards"] = c.perLink[busiest]
		scalars["busiest_bandwidth"] = c.bandwidths[busiest]
	}
	if c.fwdWin != nil {
		// Windowed forwards: exact over the last window_rounds rounds,
		// mean ×1000, and the decayed maximum of older rounds. These
		// merge element-wise by maximum like every unanchored scalar.
		scalars["window"] = len(c.fwdWin.buf)
		scalars["window_rounds"] = c.fwdWin.n
		scalars["window_forwards"] = c.fwdWin.sum
		scalars["window_max"] = c.fwdWin.max()
		scalars["window_mean_millis"] = c.fwdWin.meanMillis()
		scalars["decayed_max_millis"] = c.decayedMillis
	}
	return Summary{Name: NameLinkUtilSeries, Kind: KindSeries,
		Anchor: "busiest_forwards", Anchored: []string{"busiest_link", "busiest_bandwidth"},
		Scalars: scalars, Series: []SeriesRecord{c.series.Record()}}
}
