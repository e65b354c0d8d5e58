// Package metrics is the measurement tier of the execution API: typed
// collectors observe a run through narrow hooks and distill it into
// Summary values — small, integer-only, deterministic records that travel
// unchanged through the harness, the service tier, and result digests.
//
// The paper's results are statements about buffer-occupancy behavior over
// time (L_t sampled every round, maxima versus bandwidth, delivery-latency
// distributions), so measurement cannot be a closed struct of scalars:
// every new question would mean editing sim, harness, service, and the
// CLIs in lockstep. Instead, a Collector is a value selected by name from
// the component registry, the engine drives whatever set the run's Spec
// names, and the distilled Summaries flow engine → harness → service →
// CLIs as data.
//
// The package is also the single home of a run's observation vocabulary:
// View, Move, Injection and the Observer hooks that Collector embeds. It
// depends only on the leaf model packages (network, packet), so sim can
// import it; the engine satisfies View itself and hands every hook — the
// run's collectors and its WithObservers observers alike — the very
// packet and move slices it works on, every round.
//
// # Determinism
//
// Every Summary payload is integers: exact scalars, bounded integer
// series, and integer histogram buckets. Quantiles are derived from
// histograms by deterministic rules (exact below the histogram's exact
// range, bucket lower bounds above it). Two executions of the same
// workload — at any worker count, on any machine — produce byte-identical
// summaries, which is what lets metric records fold into results digests.
package metrics

import (
	"fmt"
	"sort"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// View is the read-only engine state every hook observes: sim.View (the
// protocols' decision view) plus the staged packets. *sim.Engine
// satisfies it.
type View interface {
	// Round returns the current (0-based) round number.
	Round() int
	// Net returns the topology.
	Net() *network.Network
	// Packets returns the packets visibly buffered at v in arrival order.
	// The slice is shared; callers must not modify it.
	Packets(v network.NodeID) []packet.Packet
	// Load returns |L(v)|, the number of packets visibly buffered at v.
	Load(v network.NodeID) int
	// Bandwidth returns B(v), the capacity of v's outgoing link.
	Bandwidth(v network.NodeID) int
	// Occupied returns the nodes that hold a visible packet, in ascending
	// order; a collector that walks it costs O(occupied buffers) per
	// round. Staged packets do not count. The slice is shared and stays
	// valid until the engine next changes a buffer; callers must not
	// modify it.
	Occupied() []network.NodeID
	// Staged returns the number of packets injected at v but not yet
	// visible to a phased protocol (zero for unphased protocols).
	Staged(v network.NodeID) int
	// StagedPackets returns those packets in ID order (empty for unphased
	// protocols). The slice is shared; callers must not modify it.
	StagedPackets() []packet.Packet
	// Accepted and Moved are the round's delta: the packets that became
	// visible this round (the slice OnAccept receives) and the moves of
	// the most recent forwarding step (the slice OnForward receives). At
	// the L_t sample of round t they hold round t's acceptances and round
	// t−1's moves; at the post-forward sample and at OnRoundEnd, Moved
	// holds round t's moves. Only a buffer the delta grew can exceed its
	// occupancy at the previous sample point, so a running maximum needs
	// only those: at L_t the sources of the accepted packets, after
	// forwarding the receivers of the moves that were neither delivered
	// nor dropped. Both are empty after the engine's Reset. The slices
	// are shared and stay valid until the engine's next step; callers
	// must not modify them.
	Accepted() []packet.Packet
	Moved() []Move
}

// Point identifies an occupancy sample point within a round.
type Point int

const (
	// LT is the paper's measurement point: after the injection step,
	// before the forwarding step.
	LT Point = iota
	// PostForward samples after the forwarding step (receivers that did
	// not forward can peak here).
	PostForward
)

// Move is an applied forwarding decision: the packet, the link it
// crossed, and how the crossing ended.
type Move struct {
	Pkt       packet.Packet
	From, To  network.NodeID
	Delivered bool
	// Dropped marks a packet lost in transit by the run's fault model: it
	// left From's buffer and consumed the link, but never arrived (and
	// Delivered is false even if To was its destination).
	Dropped bool
}

// Injection is a packet as the adversary injected it this round
// (Inject = Arrived = the round; possibly staged, not yet visible).
type Injection = packet.Packet

// Observer receives a run's round events. The engine fires every hook on
// every round, including rounds with no injections or moves, in the
// order OnInject → OnAccept → OnSample(LT) → OnForward →
// OnSample(PostForward) → OnRoundEnd, and evaluates the run's invariants
// after the last OnRoundEnd. The slices are the engine's own: valid only
// for the duration of the call and not to be modified, so hooks that
// need them later must copy them. Implementations embed NopObserver and
// override the hooks they need.
type Observer interface {
	// OnInject fires after the injection step with the packets injected
	// this round (possibly staged, not yet visible); empty if none.
	OnInject(round int, injs []Injection)
	// OnAccept fires when packets become visible to the protocol: for
	// unphased protocols the round's injections, for phased ones the
	// staged batch at phase boundaries and nothing in between.
	OnAccept(round int, pkts []packet.Packet)
	// OnSample fires at each occupancy sample point: once at L_t and once
	// post-forwarding, in that order.
	OnSample(round int, p Point, v View)
	// OnForward fires after the forwarding step with the applied moves;
	// empty if nothing moved.
	OnForward(round int, moves []Move)
	// OnRoundEnd fires at the end of each round with the post-forwarding
	// configuration; per-round series points are finalized here.
	OnRoundEnd(round int, v View)
}

// NopObserver is an Observer with no-op hooks, for embedding.
type NopObserver struct{}

// OnInject implements Observer.
func (NopObserver) OnInject(int, []Injection) {}

// OnAccept implements Observer.
func (NopObserver) OnAccept(int, []packet.Packet) {}

// OnSample implements Observer.
func (NopObserver) OnSample(int, Point, View) {}

// OnForward implements Observer.
func (NopObserver) OnForward(int, []Move) {}

// OnRoundEnd implements Observer.
func (NopObserver) OnRoundEnd(int, View) {}

// Collector is an Observer that distills one run into a Summary.
// Collectors are stateful and single-run: build a fresh instance per run
// (the registry's Build does). Like every Observer they see every round,
// so a custom collector registered via RegisterMetric gets empty
// OnInject/OnForward calls on idle rounds. Summarize must be pure and
// repeatable — the engine snapshots summaries mid-run for partial
// Results.
type Collector interface {
	Observer
	// Name is the collector's registry name; it keys the Summary in
	// Result.Metrics.
	Name() string
	// Summarize distills the observations so far into a Summary.
	Summarize() Summary
}

// Summary kinds, as reported in the "kind" field of the wire form.
const (
	KindScalar = "scalar" // named integer scalars only
	KindSeries = "series" // bounded per-round series (plus scalars)
	KindHist   = "hist"   // histogram with derived quantile scalars
)

// Summary is a collector's distilled output in canonical wire form:
// named integer scalars, optional bounded series, and an optional
// histogram. All payloads are integers and all map keys marshal sorted,
// so the JSON encoding is deterministic and digest-stable.
type Summary struct {
	Name    string         `json:"name"`
	Kind    string         `json:"kind"`
	Scalars map[string]int `json:"scalars,omitempty"`
	Series  []SeriesRecord `json:"series,omitempty"`
	Hist    *HistRecord    `json:"hist,omitempty"`
	// Anchor optionally names the scalar that decides cross-run merges
	// of the Anchored key group: the run with the greater anchor value
	// contributes the anchor and every Anchored scalar, keeping
	// argmax-position scalars (max_load_node, busiest_link, …)
	// attributed to the run the maximum actually occurred in. All other
	// scalars merge element-wise by maximum.
	Anchor   string   `json:"anchor,omitempty"`
	Anchored []string `json:"anchored,omitempty"`
}

// Scalar returns the named scalar (zero if absent).
func (s Summary) Scalar(key string) int { return s.Scalars[key] }

// SeriesByKey returns the series with the given key, if present.
func (s Summary) SeriesByKey(key string) (SeriesRecord, bool) {
	for _, sr := range s.Series {
		if sr.Key == key {
			return sr, true
		}
	}
	return SeriesRecord{}, false
}

// Merge folds two same-name summaries from different runs into one
// aggregate — the cross-cell aggregation the harness, the service
// summary event, and aqtbench's corpus percentiles use. The rules are
// deterministic per payload:
//
//   - histograms merge bucket-wise, and every quantile scalar (p50, p90,
//     p99) plus count/sum/min/max is re-derived from the merged histogram;
//   - scalars merge by element-wise maximum (the aggregate of per-run
//     maxima is the grid maximum) — except the anchored group: when
//     Anchor names a scalar, the run with the greater anchor value
//     contributes the anchor and every Anchored key, so argmax-position
//     scalars (max_load_node, max_load_round, busiest_link, …) stay
//     attributed to the run the maximum actually occurred in; anchor
//     ties keep the first argument, so callers must fold in a canonical
//     order (the harness and service both fold in cell-index order);
//   - series are dropped — per-round series from different runs have no
//     canonical alignment, so an aggregate carries none.
//
// Merging summaries with different names or kinds is an error.
func Merge(a, b Summary) (Summary, error) {
	if a.Name != b.Name || a.Kind != b.Kind {
		return Summary{}, fmt.Errorf("metrics: cannot merge %s/%s with %s/%s", a.Name, a.Kind, b.Name, b.Kind)
	}
	out := Summary{Name: a.Name, Kind: a.Kind, Anchor: a.Anchor, Anchored: a.Anchored}
	if a.Hist != nil || b.Hist != nil {
		h := &HistRecord{}
		h.merge(a.Hist)
		h.merge(b.Hist)
		out.Hist = h
		out.Scalars = histScalars(h, scalarKeys(a.Scalars, b.Scalars))
		return out, nil
	}
	keys := scalarKeys(a.Scalars, b.Scalars)
	if len(keys) > 0 {
		out.Scalars = make(map[string]int, len(keys))
		for _, k := range keys {
			out.Scalars[k] = max(a.Scalars[k], b.Scalars[k])
		}
	}
	if anchor := a.Anchor; anchor != "" && anchor == b.Anchor && len(out.Scalars) > 0 {
		winner := a
		if b.Scalars[anchor] > a.Scalars[anchor] {
			winner = b
		}
		for _, k := range append([]string{anchor}, winner.Anchored...) {
			if v, ok := winner.Scalars[k]; ok {
				out.Scalars[k] = v
			} else {
				delete(out.Scalars, k)
			}
		}
	}
	return out, nil
}

// MergeAll folds a set of same-shaped summary maps (one per run) into one
// aggregate map. Runs that lack a name other runs carry still contribute
// to the names they have.
func MergeAll(runs []map[string]Summary) (map[string]Summary, error) {
	out := make(map[string]Summary)
	for _, m := range runs {
		// Fold names in sorted order: per-name folding is commutative
		// across names, but the canonical iteration order keeps the fold
		// deterministic by construction (and detmap-clean).
		for _, name := range SortedNames(m) {
			s := m[name]
			prev, ok := out[name]
			if !ok {
				out[name] = s
				continue
			}
			merged, err := Merge(prev, s)
			if err != nil {
				return nil, err
			}
			out[name] = merged
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// scalarKeys is the sorted union of the two scalar key sets.
func scalarKeys(a, b map[string]int) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// histScalars re-derives the conventional histogram scalars for the keys
// the inputs carried: quantiles from the merged buckets, count/sum/max
// from the merged totals. Unknown keys fall back to the merged maximum
// semantics and are simply dropped (they cannot be re-derived).
func histScalars(h *HistRecord, keys []string) map[string]int {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		switch k {
		case "p50":
			out[k] = h.Quantile(50)
		case "p90":
			out[k] = h.Quantile(90)
		case "p99":
			out[k] = h.Quantile(99)
		case "count":
			out[k] = h.Count
		case "sum":
			out[k] = h.Sum
		case "min":
			out[k] = h.Min
		case "max":
			out[k] = h.Max
		}
	}
	return out
}

// SortedNames returns the summary map's keys in sorted order — the
// canonical iteration order for tables and wire records.
func SortedNames(m map[string]Summary) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Records renders a summary map as a canonical list, sorted by name —
// the wire form harness.CellRecord embeds.
func Records(m map[string]Summary) []Summary {
	if len(m) == 0 {
		return nil
	}
	out := make([]Summary, 0, len(m))
	for _, name := range SortedNames(m) {
		out = append(out, m[name])
	}
	return out
}
