package sim

import (
	"context"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// legacyScalars recomputes the pre-metrics Result scalars with the
// engine's historical logic, as an independent observer: occupancy maxima
// sampled at L_t and post-forwarding via OnAccept/OnForward bookkeeping
// is impossible from outside, so it re-derives latency from moves and
// occupancy from OnRoundEnd views plus a paired reference run.
type legacyLatency struct {
	metrics.NopObserver
	total, max int
}

func (l *legacyLatency) OnForward(round int, moves []metrics.Move) {
	for _, m := range moves {
		if m.Delivered {
			lat := round - m.Pkt.Inject
			l.total += lat
			if lat > l.max {
				l.max = lat
			}
		}
	}
}

// linkForwards counts forwards per link through OnForward, dropped
// packets included (a dropped packet consumes its link): the independent
// reference the link_util_series collector is checked against.
type linkForwards struct {
	metrics.NopObserver
	perLink []int
}

func newLinkForwards(n int) *linkForwards { return &linkForwards{perLink: make([]int, n)} }

func (l *linkForwards) OnForward(_ int, moves []metrics.Move) {
	for _, m := range moves {
		l.perLink[m.From]++
	}
}

func (l *linkForwards) total() int {
	sum := 0
	for _, f := range l.perLink {
		sum += f
	}
	return sum
}

// busiest returns the link with the largest share of its rounds × B(v)
// budget, the lowest node on ties, or -1 when nothing was forwarded.
func (l *linkForwards) busiest(nw *network.Network, rounds int) int {
	best, arg := 0.0, -1
	for v, f := range l.perLink {
		if f == 0 || nw.Next(network.NodeID(v)) == network.None {
			continue
		}
		if u := float64(f) / float64(rounds*nw.Bandwidth(network.NodeID(v))); arg < 0 || u > best {
			best, arg = u, v
		}
	}
	return arg
}

// TestDefaultMetricsShimEquivalence is the acceptance gate: a run with no
// WithMetrics option reports the default {max_load, latency} collector
// set, and every historical scalar field matches both the collectors'
// summaries and an independent recomputation.
func TestDefaultMetricsShimEquivalence(t *testing.T) {
	nw := network.MustPath(16)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 3}, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	lat := &legacyLatency{}
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 400, WithObservers(lat)))
	if err != nil {
		t.Fatal(err)
	}

	if got := len(res.Metrics); got != 2 {
		t.Fatalf("default Metrics has %d entries (%v), want 2", got, res.Metrics)
	}
	ml, ok := res.Metrics[metrics.NameMaxLoad]
	if !ok {
		t.Fatal("default Metrics lacks max_load")
	}
	lt, ok := res.Metrics[metrics.NameLatency]
	if !ok {
		t.Fatal("default Metrics lacks latency")
	}

	// Field-for-field: the collector summaries ARE the scalar fields.
	if ml.Scalar("max_load") != res.MaxLoad ||
		ml.Scalar("max_load_node") != int(res.MaxLoadNode) ||
		ml.Scalar("max_load_round") != res.MaxLoadRound ||
		ml.Scalar("max_physical_load") != res.MaxPhysicalLoad {
		t.Errorf("max_load summary %v disagrees with fields %d/%d/%d/%d",
			ml.Scalars, res.MaxLoad, res.MaxLoadNode, res.MaxLoadRound, res.MaxPhysicalLoad)
	}
	if lt.Scalar("sum") != res.TotalLatency || lt.Scalar("max") != res.MaxLatency ||
		lt.Scalar("count") != res.Delivered {
		t.Errorf("latency summary %v disagrees with fields total=%d max=%d delivered=%d",
			lt.Scalars, res.TotalLatency, res.MaxLatency, res.Delivered)
	}

	// Independent recomputation of the latency scalars.
	if lat.total != res.TotalLatency || lat.max != res.MaxLatency {
		t.Errorf("legacy recomputation total=%d max=%d, result says %d/%d",
			lat.total, lat.max, res.TotalLatency, res.MaxLatency)
	}
}

// TestSelectedMetricsPreserveScalars verifies the historical fields stay
// sourced even when the selected set omits max_load/latency, and that
// selecting them reuses the same instances (no double counting).
func TestSelectedMetricsPreserveScalars(t *testing.T) {
	nw := network.MustPath(12)
	spec := func(opts ...Option) Spec {
		adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.One, Sigma: 2}, nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		return NewSpec(nw, &greedyOldest{}, adv, 200, opts...)
	}
	base, err := Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Run(context.Background(), spec(WithMetrics(metrics.NewLoadHist())))
	if err != nil {
		t.Fatal(err)
	}
	if sel.MaxLoad != base.MaxLoad || sel.MaxLoadNode != base.MaxLoadNode ||
		sel.MaxLoadRound != base.MaxLoadRound || sel.MaxPhysicalLoad != base.MaxPhysicalLoad ||
		sel.TotalLatency != base.TotalLatency || sel.MaxLatency != base.MaxLatency ||
		sel.Injected != base.Injected || sel.Delivered != base.Delivered {
		t.Errorf("scalar fields changed under WithMetrics: %+v vs %+v", sel, base)
	}
	if len(sel.Metrics) != 1 || sel.Metrics[metrics.NameLoadHist].Name != metrics.NameLoadHist {
		t.Errorf("selected Metrics = %v, want just load_hist", sel.Metrics)
	}

	both, err := Run(context.Background(), spec(WithMetrics(metrics.NewMaxLoad(), metrics.NewLatency())))
	if err != nil {
		t.Fatal(err)
	}
	if both.Metrics[metrics.NameMaxLoad].Scalar("max_load") != base.MaxLoad {
		t.Errorf("explicitly selected max_load disagrees: %v vs %d",
			both.Metrics[metrics.NameMaxLoad].Scalars, base.MaxLoad)
	}
	if both.Metrics[metrics.NameLatency].Scalar("count") != base.Delivered {
		t.Errorf("explicitly selected latency disagrees: %v vs %d",
			both.Metrics[metrics.NameLatency].Scalars, base.Delivered)
	}
}

// TestFullCollectorSetConsistency cross-checks every built-in collector
// against the engine's own accounting on one run.
func TestFullCollectorSetConsistency(t *testing.T) {
	nw := network.MustPath(10)
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.One, Sigma: 2}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	links := newLinkForwards(nw.Len())
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, rounds,
		WithMetrics(metrics.NewMaxLoad(), metrics.NewLoadSeries(64, 16), metrics.NewLoadHist(),
			metrics.NewLatency(), metrics.NewLinkUtilSeries(64, 16)),
		WithObservers(links)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 5 {
		t.Fatalf("Metrics has %d entries: %v", len(res.Metrics), metrics.SortedNames(res.Metrics))
	}

	ls := res.Metrics[metrics.NameLoadSeries]
	maxSeries, ok := ls.SeriesByKey("max")
	if !ok || maxSeries.Rounds != rounds {
		t.Fatalf("load_series max covers %d rounds, want %d", maxSeries.Rounds, rounds)
	}
	peak := 0
	for _, v := range maxSeries.Values {
		if v > peak {
			peak = v
		}
	}
	if peak != res.MaxLoad {
		t.Errorf("load_series peak %d != MaxLoad %d", peak, res.MaxLoad)
	}

	lh := res.Metrics[metrics.NameLoadHist]
	if lh.Hist == nil || lh.Hist.Count != rounds*nw.Len() {
		t.Errorf("load_hist count = %+v, want %d samples", lh.Hist, rounds*nw.Len())
	}

	lu := res.Metrics[metrics.NameLinkUtilSeries]
	totalForwards := links.total()
	if lu.Scalar("total_forwards") != totalForwards {
		t.Errorf("link_util total_forwards = %d, an OnForward observer counted %d", lu.Scalar("total_forwards"), totalForwards)
	}
	busiest := links.busiest(nw, rounds)
	if busiest < 0 || lu.Scalar("busiest_link") != busiest || lu.Scalar("busiest_forwards") != links.perLink[busiest] {
		t.Errorf("busiest_link = %d with %d forwards, the observer's counts say %d",
			lu.Scalar("busiest_link"), lu.Scalar("busiest_forwards"), busiest)
	}
	fw, ok := lu.SeriesByKey("forwards")
	if !ok {
		t.Fatal("link_util_series lacks the forwards series")
	}
	sum := 0
	for _, v := range fw.Values {
		sum += v
	}
	if sum != totalForwards {
		t.Errorf("forwards series sums to %d, want %d (AggSum downsampling must preserve totals)", sum, totalForwards)
	}
}

// TestLoadSeriesBoundedAtMillionRounds pins the acceptance criterion
// end to end: a 10⁶-round engine run with load_series selected reports a
// series whose length (and the collector's memory) is bounded by the
// configured cap, while still covering every round.
func TestLoadSeriesBoundedAtMillionRounds(t *testing.T) {
	const rounds = 1_000_000
	const capPoints, tailCap = 512, 64
	nw := network.MustPath(2)
	adv := adversary.NewStream(fullRate(1), 0, 1)
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, rounds,
		WithMetrics(metrics.NewLoadSeries(capPoints, tailCap))))
	if err != nil {
		t.Fatal(err)
	}
	ls := res.Metrics[metrics.NameLoadSeries]
	for _, key := range []string{"max", "total"} {
		s, ok := ls.SeriesByKey(key)
		if !ok {
			t.Fatalf("load_series lacks %q", key)
		}
		if s.Rounds != rounds {
			t.Errorf("%s covers %d rounds, want %d", key, s.Rounds, rounds)
		}
		if len(s.Values) > capPoints+1 {
			t.Errorf("%s carries %d points, cap is %d", key, len(s.Values), capPoints)
		}
		if len(s.Tail) != tailCap {
			t.Errorf("%s tail is %d rounds, want %d", key, len(s.Tail), tailCap)
		}
		if s.Stride*len(s.Values) < rounds {
			t.Errorf("%s stride %d × %d points does not cover the run", key, s.Stride, len(s.Values))
		}
	}
}

// orderingLog is the event sequence shared by the ordering contract
// test's hooks and invariant: one "hook:event" entry per call, its round,
// and the length of the slice the call carried.
type orderingLog struct {
	events []string
	rounds []int
	sizes  []int
}

func (l *orderingLog) add(ev string, round, size int) {
	l.events = append(l.events, ev)
	l.rounds = append(l.rounds, round)
	l.sizes = append(l.sizes, size)
}

// orderingHook records every hook call into a shared log. It is a full
// Collector, so the same recorder attaches through WithObservers or
// WithMetrics.
type orderingHook struct {
	id  string
	log *orderingLog
}

func (o *orderingHook) Name() string               { return "ordering-" + o.id }
func (o *orderingHook) Summarize() metrics.Summary { return metrics.Summary{Name: o.Name()} }
func (o *orderingHook) OnInject(round int, pkts []packet.Packet) {
	o.log.add(o.id+":inject", round, len(pkts))
}
func (o *orderingHook) OnAccept(round int, pkts []packet.Packet) {
	o.log.add(o.id+":accept", round, len(pkts))
}
func (o *orderingHook) OnSample(round int, p metrics.Point, _ metrics.View) {
	ev := ":sample-lt"
	if p == metrics.PostForward {
		ev = ":sample-post"
	}
	o.log.add(o.id+ev, round, 0)
}
func (o *orderingHook) OnForward(round int, moves []metrics.Move) {
	o.log.add(o.id+":forward", round, len(moves))
}
func (o *orderingHook) OnRoundEnd(round int, _ metrics.View) { o.log.add(o.id+":roundend", round, 0) }

// TestObserverOrderingContract pins the per-round dispatch contract: every
// hook fires on every round, idle rounds included, in the order OnInject →
// OnAccept → OnSample(LT) → OnForward → OnSample(PostForward) →
// OnRoundEnd; each hook kind reaches every attached hook (collectors
// before observers) before the next kind starts; and the invariants run
// after every hook's OnRoundEnd. For a phased protocol OnAccept carries
// packets only at phase boundaries.
func TestObserverOrderingContract(t *testing.T) {
	stream := func() adversary.Adversary { return adversary.NewStream(fullRate(2), 0, 5) }
	// Two packets 0 → 5, at rounds 0 and 5: rounds 1–4 and 6–11 inject
	// nothing, and rounds 10–11 move nothing.
	gappy := func() adversary.Adversary {
		return adversary.NewReplay(fullRate(1), map[int][]packet.Injection{
			0: {{Src: 0, Dst: 5}},
			5: {{Src: 0, Dst: 5}},
		})
	}
	for _, tc := range []struct {
		name  string
		proto Protocol
		phase int
		adv   func() adversary.Adversary
		// attach registers hooks a and b; order is the dispatch order it
		// must produce.
		attach func(a, b *orderingHook) []Option
		order  []string
		idle   bool
	}{
		{"unphased", &greedyOldest{}, 1, stream,
			func(a, b *orderingHook) []Option { return []Option{WithObservers(a, b)} }, []string{"a", "b"}, false},
		{"phased-3", &phasedGreedy{greedyOldest{phase: 3}}, 3, stream,
			func(a, b *orderingHook) []Option { return []Option{WithObservers(a, b)} }, []string{"a", "b"}, false},
		{"collectors-idle-rounds", &greedyOldest{}, 1, gappy,
			func(a, b *orderingHook) []Option { return []Option{WithMetrics(a, b)} }, []string{"a", "b"}, true},
		{"mixed-idle-rounds", &greedyOldest{}, 1, gappy,
			func(a, b *orderingHook) []Option { return []Option{WithObservers(a), WithMetrics(b)} }, []string{"b", "a"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := network.MustPath(6)
			log := &orderingLog{}
			inv := func(v metrics.View) error { log.add("invariant", v.Round(), 0); return nil }
			opts := append(tc.attach(&orderingHook{"a", log}, &orderingHook{"b", log}), WithInvariants(inv))
			const rounds = 12
			if _, err := Run(context.Background(), NewSpec(nw, tc.proto, tc.adv(), rounds, opts...)); err != nil {
				t.Fatal(err)
			}

			var want []string
			var wantRounds []int
			for r := 0; r < rounds; r++ {
				for _, ev := range []string{"inject", "accept", "sample-lt", "forward", "sample-post", "roundend"} {
					for _, id := range tc.order {
						want = append(want, id+":"+ev)
						wantRounds = append(wantRounds, r)
					}
				}
				want = append(want, "invariant")
				wantRounds = append(wantRounds, r)
			}
			for i := range min(len(want), len(log.events)) {
				if log.events[i] != want[i] || log.rounds[i] != wantRounds[i] {
					t.Fatalf("event %d: %s(%d), want %s(%d)", i, log.events[i], log.rounds[i], want[i], wantRounds[i])
				}
			}
			if len(log.events) != len(want) {
				t.Fatalf("%d events, want %d", len(log.events), len(want))
			}

			// Accepts carry the injections staged since the last phase
			// boundary (every round is a boundary when unphased).
			idleInjects, idleMoves, staged := 0, 0, 0
			for i, ev := range log.events {
				r, n := log.rounds[i], log.sizes[i]
				switch ev {
				case "a:inject":
					staged += n
					if n == 0 {
						idleInjects++
					}
				case "a:accept":
					want := 0
					if r%tc.phase == 0 {
						want, staged = staged, 0
					}
					if n != want {
						t.Errorf("round %d: accept carried %d packets, want %d", r, n, want)
					}
				case "a:forward":
					if n == 0 {
						idleMoves++
					}
				}
			}
			if tc.idle && (idleInjects == 0 || idleMoves == 0) {
				t.Errorf("adversary left %d inject-idle and %d move-idle rounds, want some of each", idleInjects, idleMoves)
			}
		})
	}
}

// TestMaxLinkUtilizationTieBreak pins link_util_series' tie-break:
// equal utilizations f/B(v) resolve to the lowest node, whichever link
// forwarded more packets.
func TestMaxLinkUtilizationTieBreak(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fast    network.NodeID // the one link at B = 2
		perLink []int
		want    int
	}{
		{"the lower node forwarded fewer", 1, []int{5, 10, 3}, 0},
		{"the higher node forwarded more", 2, []int{3, 5, 10}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := network.MustPath(4, network.WithLinkBandwidth(tc.fast, 2))
			e, err := NewEngine(NewSpec(nw, &greedyOldest{}, adversary.Empty{}, 10))
			if err != nil {
				t.Fatal(err)
			}
			c := metrics.NewLinkUtilSeries(16, 4)
			c.OnSample(0, metrics.LT, e)
			var moves []metrics.Move
			for v, f := range tc.perLink {
				for range f {
					moves = append(moves, metrics.Move{From: network.NodeID(v), To: network.NodeID(v + 1)})
				}
			}
			c.OnForward(0, moves)
			s := c.Summarize()
			link, f, b := s.Scalar("busiest_link"), s.Scalar("busiest_forwards"), s.Scalar("busiest_bandwidth")
			if link != tc.want || f != tc.perLink[tc.want] || 2*f != 10*b {
				t.Errorf("busiest link %d with %d forwards at B = %d; want node %d at 1/2 of 10 rounds", link, f, b, tc.want)
			}
		})
	}
}

// TestMaxLinkUtilizationAllSinks covers the degenerate all-sink forest:
// no node has an outgoing link, so no utilization exists.
func TestMaxLinkUtilizationAllSinks(t *testing.T) {
	nw, err := network.NewForest([]network.NodeID{network.None, network.None, network.None})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adversary.Empty{}, 5,
		WithMetrics(metrics.NewLinkUtilSeries(16, 4))))
	if err != nil {
		t.Fatal(err)
	}
	lu := res.Metrics[metrics.NameLinkUtilSeries]
	if got := lu.Scalar("busiest_link"); got != -1 {
		t.Errorf("link_util busiest_link = %d, want -1", got)
	}
	if _, ok := lu.Scalars["busiest_bandwidth"]; ok {
		t.Error("link_util reports a busiest link's bandwidth on an all-sink forest")
	}
}
