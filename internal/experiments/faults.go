package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// dropProbs is the loss axis E13 sweeps: exact drop probabilities
// from loss-free to heavy loss.
var dropProbs = []rat.Rat{
	rat.New(0, 1), rat.New(1, 100), rat.New(1, 20), rat.New(1, 10), rat.New(1, 4),
}

// E13Faults measures buffer headroom under packet loss: PTS on the E1
// burst workload, swept over i.i.d. per-link drop probability p and link
// bandwidth B. Every (p, B) cell replays identical injections — both axes
// are excluded from seed derivation — and the drop schedules are nested
// across p (a packet lost at p=1/100 is also lost at every larger p), so
// each column is a paired comparison.
//
// Under the drop model a lost packet has already left its buffer: loss
// happens in transit, strictly after the occupancy peak it contributed
// to, so it can only starve downstream buffers. Measured max load is
// therefore non-increasing in p (the 2+σ bound keeps holding with
// growing headroom), while goodput — the delivered fraction — decays:
// loss buys buffer space at the price of throughput, the inverse of
// E12's bandwidth tradeoff.
func E13Faults() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "buffer headroom under loss: drop probability vs max load and goodput",
		Paper: "Prop 3.1 under faults: loss preserves ≤ 2 + σ; goodput pays",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			const n = 64
			const sigma = 3
			const rounds = 6 * n

			faultAxis := make([]harness.FaultSpec, len(dropProbs))
			for i, p := range dropProbs {
				faultAxis[i] = harness.DropFault(p)
			}
			type cellOut struct {
				load, dropped, delivered, goodput int
				inadmissible                      bool
			}
			// run sweeps the drop axis × bandwidths under one bound, every
			// cell drawing its traffic and drop schedule from seed, and
			// appends a row block per bandwidth. With capped it asserts the
			// 2+σ cap and per-B headroom monotonicity in p (Prop 3.1's
			// regime, ρ ≤ 1, where a dropped packet can only starve
			// downstream); without, the direction column is observational —
			// under standing backlog loss perturbs the forwarding schedule
			// and exact coupling monotonicity no longer holds.
			run := func(table *stats.Table, bound adversary.Bound, advSpec harness.AdversarySpec, seed int64, bandwidths []int, capped bool) (bool, error) {
				sweep := &harness.Sweep{
					Protocols: []harness.ProtocolSpec{
						harness.Protocol("PTS", func() sim.Protocol { return core.NewPTS() }),
					},
					Topologies:  []harness.TopologySpec{harness.Path(n)},
					Bounds:      []adversary.Bound{bound},
					Adversaries: []harness.AdversarySpec{advSpec},
					Bandwidths:  bandwidths,
					Seeds:       []int64{seed},
					Rounds:      []int{rounds},
					Faults:      faultAxis,
					Metrics: func(c harness.Cell, _ *network.Network) ([]metrics.Collector, error) {
						return []metrics.Collector{metrics.NewGoodput(512, 64, c.Rounds)}, nil
					},
				}
				res, err := sweep.Run(ctx)
				if err != nil {
					return false, err
				}
				byCell := make(map[string]cellOut)
				for _, cr := range res.Cells {
					key := fmt.Sprintf("%d/%s", cr.Cell.Bandwidth, cr.Cell.Faults)
					if cr.Err != nil {
						if errors.Is(cr.Err, adversary.ErrRateInadmissible) {
							byCell[key] = cellOut{inadmissible: true}
							continue
						}
						return false, cr.Err
					}
					sum, ok := cr.Result.Metrics[metrics.NameGoodput]
					if !ok {
						return false, fmt.Errorf("cell %v lacks the goodput summary", cr.Cell)
					}
					byCell[key] = cellOut{
						load:      cr.Result.MaxLoad,
						dropped:   cr.Result.Dropped,
						delivered: cr.Result.Delivered,
						goodput:   sum.Scalar("goodput_permille"),
					}
				}
				ok := true
				limit := 2 + sigma
				for _, b := range bandwidths {
					prev := -1
					for i, p := range dropProbs {
						c := byCell[fmt.Sprintf("%d/%s", b, harness.DropFault(p).Name)]
						if c.inadmissible {
							table.AddRow(b, p, "—", "—", "—", "—", "—", "—", "inadmissible: ρ > B")
							continue
						}
						boundCell := "—"
						if capped {
							boundCell = fmt.Sprint(limit)
							if c.load > limit {
								ok = false
							}
						}
						headroom := limit - c.load
						mono := i == 0 || headroom >= prev
						dir := "↑"
						if !mono {
							dir = "↓"
						}
						if capped {
							ok = ok && mono
							dir = stats.CheckMark(mono)
						}
						table.AddRow(b, p, c.load, boundCell, headroom, c.delivered, c.dropped, c.goodput, dir)
						prev = headroom
					}
				}
				return ok, nil
			}

			baseCols := []string{"B", "drop p", "max load", "bound", "headroom vs 2+σ", "delivered", "dropped", "goodput ‰"}
			assertCols := append(append([]string{}, baseCols...), "headroom non-decreasing")
			observeCols := append(append([]string{}, baseCols...), "headroom trend")
			burst := harness.AdversarySpec{
				Name: "burst",
				New: func(nw *network.Network, bound adversary.Bound, _ int64, r int) (adversary.Adversary, error) {
					return adversary.PTSBurst(nw, bound, r)
				},
			}
			unit := adversary.Bound{Rho: rat.One, Sigma: sigma}
			t1 := stats.NewTable(
				fmt.Sprintf("unit demand: PTS on path(%d), burst adversary, %v, %d rounds, identical injections per p", n, unit, rounds),
				assertCols...)
			// The two seeds are fixed; these values give the tables in
			// EXPERIMENTS.md.
			ok1, err := run(t1, unit, burst, 1318745973422671288, []int{1}, true)
			if err != nil {
				return nil, err
			}

			super := adversary.Bound{Rho: rat.FromInt(2), Sigma: sigma}
			t2 := stats.NewTable(
				fmt.Sprintf("super-unit demand ρ=2 (needs B ≥ 2): PTS on path(%d), random adversary, %v, %d rounds, identical injections and drop schedules per (p,B) cell", n, super, rounds),
				observeCols...)
			ok2, err := run(t2, super, harness.RandomAdversary(nil), 877840929667839060, []int{1, 2, 4}, false)
			if err != nil {
				return nil, err
			}

			out := &Outcome{Tables: []*stats.Table{t1, t2}, OK: ok1 && ok2,
				Notes: []string{
					"expected shape at ρ ≤ 1: max load never grows with p (a dropped packet has already vacated its buffer — loss only starves downstream), so headroom against 2+σ is non-decreasing in p while goodput decays",
					"at ρ = 2 the headroom column is observational: under standing backlog loss perturbs the forwarding schedule and per-cell monotonicity can wobble by ±1, though heavy loss still collapses the backlog (12+ → 3)",
					fmt.Sprintf("per-link loss compounds over the path's %d hops: survival ≈ (1−p)^%d, so even p=1/100 roughly halves goodput — drops dominate deliveries long before buffers notice", n-1, n-1),
					"drop schedules are nested across p (coupled uniform draws) and blind to B, so every row block is a paired headroom curve, not independent noise",
					"the inverse of E12: there bandwidth buys buffer space at fixed demand; here loss buys headroom at the price of goodput — with great loss come small buffers",
				}}
			return out, emit(w, out)
		},
	}
}
