package experiments

import (
	"context"
	"io"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
	"smallbuffers/internal/trace"
)

// E8Ablations measures the two design choices that EXPERIMENTS.md's
// index lists for E8:
// (a) HPTS's ActivatePreBad step — removing it should break the Lemma 4.8
// phase invariant and can raise the max load; (b) the drain-when-idle
// extension to PPTS — it must not raise the max load while restoring
// liveness.
func E8Ablations() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "ablations: ActivatePreBad (HPTS) and drain-when-idle (PPTS)",
		Paper: "Algorithm 5 / Lemma 4.8; §3 liveness discussion",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			ok := true

			// (a) HPTS with and without ActivatePreBad.
			hptsTable := stats.NewTable("HPTS ± ActivatePreBad (ρ = 1/ℓ)",
				"m", "ℓ", "variant", "max load", "bound ℓm+σ+1", "phase-invariant violations")
			prebadBroke := false
			for _, mc := range []struct{ m, ell int }{{3, 2}, {2, 3}, {4, 2}} {
				h, err := core.NewHierarchy(mc.m, mc.ell)
				if err != nil {
					return nil, err
				}
				n := h.N()
				nw := network.MustPath(n)
				rho := rat.New(1, int64(mc.ell))
				const sigma = 2
				bound := adversary.Bound{Rho: rho, Sigma: sigma}
				var dests []network.NodeID
				for v := 1; v < n; v += max(1, n/8) {
					dests = append(dests, network.NodeID(v))
				}
				dests = append(dests, network.NodeID(n-1))
				for _, ablate := range []bool{false, true} {
					adv, err := adversary.NewRandom(nw, bound, dests, 11)
					if err != nil {
						return nil, err
					}
					var proto sim.Protocol
					if ablate {
						proto = core.NewHPTS(mc.ell, core.HPTSAblatePreBad())
					} else {
						proto = core.NewHPTS(mc.ell)
					}
					check := core.NewHPTSBoundCheck(nw, h, rho)
					violations := 0
					res, err := sim.Run(ctx, sim.NewSpec(nw, proto, adv, 60*mc.ell*n,
						sim.WithObservers(check.Observer()),
						sim.WithInvariants(softInvariant(check.Invariant(), &violations))))
					if err != nil {
						return nil, err
					}
					if !ablate && violations != 0 {
						ok = false // the full algorithm must keep the invariant
					}
					if ablate && violations > 0 {
						prebadBroke = true
					}
					hptsTable.AddRow(mc.m, mc.ell, proto.Name(), res.MaxLoad,
						core.HPTSSpaceBound(h, sigma), violations)
				}
			}
			if !prebadBroke {
				// The ablation is only meaningful if it is observable.
				ok = false
			}

			// (b) PPTS strict vs drain-when-idle.
			drainTable := stats.NewTable("PPTS ± drain-when-idle (burst workload + idle tail)",
				"variant", "max load", "bound 1+d+σ", "delivered", "residual")
			const n = 32
			nw := network.MustPath(n)
			const d, sigma = 4, 2
			bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
			for _, drain := range []bool{false, true} {
				adv, err := adversary.PPTSBurst(nw, bound, d, 6*n)
				if err != nil {
					return nil, err
				}
				var proto sim.Protocol
				if drain {
					proto = core.NewPPTS(core.PPTSWithDrain())
				} else {
					proto = core.NewPPTS()
				}
				// Horizon extends well past the pattern (6n rounds) so drain
				// can walk every leftover packet to its destination.
				res, err := sim.Run(ctx, sim.NewSpec(nw, proto, adv, 40*n))
				if err != nil {
					return nil, err
				}
				if res.MaxLoad > 1+d+sigma {
					ok = false
				}
				if drain && res.Residual > 0 {
					ok = false // drain must clear the line during the idle tail
				}
				drainTable.AddRow(proto.Name(), res.MaxLoad, 1+d+sigma, res.Delivered, res.Residual)
			}

			out := &Outcome{
				Tables: []*stats.Table{hptsTable, drainTable},
				OK:     ok,
				Notes: []string{
					"without ActivatePreBad, packets completing a segment stack onto occupied lower-level pseudo-buffers: the Lemma 4.8 phase invariant is violated (nonzero count expected)",
					"drain-when-idle restores liveness (residual 0) without raising the max load",
				},
			}
			return out, emit(w, out)
		},
	}
}

// Figure1 renders the paper's only figure.
func Figure1() Experiment {
	return Experiment{
		ID:    "F1",
		Title: "hierarchical partition and virtual trajectory (n=16, m=2, ℓ=4)",
		Paper: "Figure 1",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			h, err := core.NewHierarchy(2, 4)
			if err != nil {
				return nil, err
			}
			if err := trace.RenderFigure1(w, h, 0, 13); err != nil {
				return nil, err
			}
			segs := h.Segments(0, 13)
			table := stats.NewTable("virtual trajectory 0 → 13", "segment", "level", "from", "to")
			for i, s := range segs {
				table.AddRow(i+1, s.Level, s.From, s.To)
			}
			wantLevels := []int{3, 2, 0}
			ok := len(segs) == len(wantLevels)
			for i := range segs {
				if ok && segs[i].Level != wantLevels[i] {
					ok = false
				}
			}
			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{"matches Figure 1: the packet corrects digit 3 (to node 8), digit 2 (to 12), then digit 0 (to 13)"}}
			return out, emit(w, out)
		},
	}
}
