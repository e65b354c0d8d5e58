package experiments

import (
	"context"
	"fmt"
	"io"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// E1PTS reproduces Proposition 3.1: PTS keeps every buffer at ≤ 2 + σ.
// The 30-cell grid (3 path lengths × 5 demand bounds × 2 adversaries) runs
// as a parallel harness sweep.
func E1PTS() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "PTS buffer bound on a path, single destination",
		Paper: "Proposition 3.1: max load ≤ 2 + σ",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			table := stats.NewTable("PTS max buffer load vs 2+σ",
				"n", "ρ", "σ", "adversary", "measured", "bound", "ratio", "ok")
			sweep := &harness.Sweep{
				Protocols: []harness.ProtocolSpec{
					harness.Protocol("PTS", func() sim.Protocol { return core.NewPTS() }),
				},
				Topologies: []harness.TopologySpec{harness.Path(16), harness.Path(64), harness.Path(256)},
				Bounds: []adversary.Bound{
					{Rho: rat.One, Sigma: 0}, {Rho: rat.One, Sigma: 2}, {Rho: rat.One, Sigma: 6},
					{Rho: rat.New(1, 2), Sigma: 3}, {Rho: rat.New(1, 4), Sigma: 2},
				},
				Adversaries: []harness.AdversarySpec{
					{Name: "burst", New: func(nw *network.Network, bound adversary.Bound, _ int64, rounds int) (adversary.Adversary, error) {
						return adversary.PTSBurst(nw, bound, rounds)
					}},
					harness.RandomAdversary(nil), // sinks = the single destination n−1
				},
				RoundsFor: func(nw *network.Network) int { return 6 * nw.Len() },
				BaseSeed:  1,
			}
			res, err := sweep.Run(ctx)
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			ok := true
			for _, cell := range res.Cells {
				n := len(cell.Result.PerNodeMax)
				limit := 2 + cell.Cell.Bound.Sigma
				rowOK := cell.Result.MaxLoad <= limit
				ok = ok && rowOK
				table.AddRow(n, cell.Cell.Bound.Rho, cell.Cell.Bound.Sigma, cell.Cell.Adversary,
					cell.Result.MaxLoad, limit, stats.Ratio(cell.Result.MaxLoad, limit), stats.CheckMark(rowOK))
			}
			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{"expected shape: measured ≤ 2+σ everywhere; crafted bursts approach the bound"}}
			return out, emit(w, out)
		},
	}
}

// E2PPTS reproduces Proposition 3.2: PPTS ≤ 1 + d + σ.
func E2PPTS() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "PPTS buffer bound on a path, d destinations",
		Paper: "Proposition 3.2: max load ≤ 1 + d + σ",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			table := stats.NewTable("PPTS max buffer load vs 1+d+σ",
				"n", "d", "σ", "adversary", "measured", "bound", "ratio", "ok")
			ok := true
			const n = 64
			nw := network.MustPath(n)
			for _, d := range []int{1, 2, 4, 8, 16, 32} {
				for _, sigma := range []int{0, 2} {
					bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
					horizon := 8 * n
					burst, err := adversary.PPTSBurst(nw, bound, d, horizon)
					if err != nil {
						return nil, err
					}
					dests := make([]network.NodeID, d)
					for k := 0; k < d; k++ {
						dests[k] = network.NodeID(n - d + k)
					}
					rnd, err := adversary.NewRandom(nw, bound, dests, 2)
					if err != nil {
						return nil, err
					}
					for _, a := range []struct {
						name string
						adv  adversary.Adversary
					}{{"burst", burst}, {"random", rnd}} {
						res, err := sim.Run(ctx, sim.NewSpec(nw, core.NewPPTS(), a.adv, horizon))
						if err != nil {
							return nil, err
						}
						limit := 1 + d + sigma
						rowOK := res.MaxLoad <= limit
						ok = ok && rowOK
						table.AddRow(n, d, sigma, a.name, res.MaxLoad, limit,
							stats.Ratio(res.MaxLoad, limit), stats.CheckMark(rowOK))
					}
				}
			}
			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{"expected shape: measured grows linearly with d (the Ω(d) regime of rate ρ > 1/2)"}}
			return out, emit(w, out)
		},
	}
}

// E3Trees reproduces Propositions B.3 and 3.5 on directed trees.
func E3Trees() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "tree PTS and PPTS buffer bounds on directed trees",
		Paper: "Prop B.3: ≤ 2 + σ (single dest); Prop 3.5: ≤ 1 + d′ + σ",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			single := stats.NewTable("TreePTS (all packets to the root) vs 2+σ",
				"tree", "nodes", "σ", "measured", "bound", "ok")
			multi := stats.NewTable("TreePPTS (chain destinations) vs 1+d′+σ",
				"tree", "nodes", "d′", "σ", "measured", "bound", "ok")
			ok := true

			type shape struct {
				name string
				nw   *network.Network
			}
			var shapes []shape
			if tr, err := network.CaterpillarTree(8, 2); err == nil {
				shapes = append(shapes, shape{"caterpillar(8,2)", tr})
			}
			if tr, err := network.BinaryTree(4); err == nil {
				shapes = append(shapes, shape{"binary(h=4)", tr})
			}
			if tr, err := network.SpiderTree(4, 4); err == nil {
				shapes = append(shapes, shape{"spider(4,4)", tr})
			}
			for _, sh := range shapes {
				for _, sigma := range []int{0, 3} {
					bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
					adv, err := adversary.TreeBurst(sh.nw, bound, nil, 240)
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(ctx, sim.NewSpec(sh.nw, core.NewTreePTS(), adv, 240))
					if err != nil {
						return nil, err
					}
					limit := 2 + sigma
					rowOK := res.MaxLoad <= limit
					ok = ok && rowOK
					single.AddRow(sh.name, sh.nw.Len(), sigma, res.MaxLoad, limit, stats.CheckMark(rowOK))
				}

				// Multi-destination: a chain of destinations up one deepest path.
				root := sh.nw.Sinks()[0]
				leaf := root
				for _, l := range sh.nw.Leaves() {
					if sh.nw.Depth(l) > sh.nw.Depth(leaf) {
						leaf = l
					}
				}
				var dests []network.NodeID
				for v := sh.nw.Next(leaf); v != network.None; v = sh.nw.Next(v) {
					dests = append(dests, v)
				}
				dprime := core.DestinationDepth(sh.nw, dests)
				for _, sigma := range []int{0, 2} {
					bound := adversary.Bound{Rho: rat.One, Sigma: sigma}
					adv, err := adversary.TreeBurst(sh.nw, bound, dests, 300)
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(ctx, sim.NewSpec(sh.nw, core.NewTreePPTS(), adv, 300))
					if err != nil {
						return nil, err
					}
					limit := 1 + dprime + sigma
					rowOK := res.MaxLoad <= limit
					ok = ok && rowOK
					multi.AddRow(sh.name, sh.nw.Len(), dprime, sigma, res.MaxLoad, limit, stats.CheckMark(rowOK))
				}
			}
			out := &Outcome{Tables: []*stats.Table{single, multi}, OK: ok,
				Notes: []string{"d′ is the maximum number of destinations on any leaf-root path (not the total d)"}}
			return out, emit(w, out)
		},
	}
}

// E4HPTS reproduces Theorem 4.1: HPTS ≤ ℓ·n^(1/ℓ) + σ + 1 when ρ·ℓ ≤ 1.
func E4HPTS() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "HPTS hierarchical bound on a path of n = m^ℓ nodes",
		Paper: "Theorem 4.1: max load ≤ ℓ·n^(1/ℓ) + σ + 1 for ρ·ℓ ≤ 1",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			table := stats.NewTable("HPTS max buffer load vs ℓ·m+σ+1 (ρ = 1/ℓ)",
				"n", "m", "ℓ", "σ", "measured", "bound", "ratio", "phase-invariant", "ok")
			ok := true
			for _, mc := range []struct{ m, ell int }{
				{2, 2}, {2, 3}, {2, 4}, {4, 2}, {3, 3}, {8, 2},
			} {
				h, err := core.NewHierarchy(mc.m, mc.ell)
				if err != nil {
					return nil, err
				}
				n := h.N()
				nw := network.MustPath(n)
				rho := rat.New(1, int64(mc.ell))
				for _, sigma := range []int{0, 2} {
					bound := adversary.Bound{Rho: rho, Sigma: sigma}
					var dests []network.NodeID
					for v := 1; v < n; v += max(1, n/8) {
						dests = append(dests, network.NodeID(v))
					}
					dests = append(dests, network.NodeID(n-1))
					adv, err := adversary.NewRandom(nw, bound, dests, 11)
					if err != nil {
						return nil, err
					}
					check := core.NewHPTSBoundCheck(nw, h, rho)
					violations := 0
					res, err := sim.Run(ctx, sim.NewSpec(nw, core.NewHPTS(mc.ell), adv, 24*mc.ell*n,
						sim.WithObservers(check.Observer()),
						sim.WithInvariants(softInvariant(check.Invariant(), &violations))))
					if err != nil {
						return nil, err
					}
					limit := core.HPTSSpaceBound(h, sigma)
					rowOK := res.MaxLoad <= limit && violations == 0
					ok = ok && rowOK
					table.AddRow(n, mc.m, mc.ell, sigma, res.MaxLoad, limit,
						stats.Ratio(res.MaxLoad, limit),
						fmt.Sprintf("%d violations", violations), stats.CheckMark(rowOK))
				}
			}
			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{"phase-invariant counts rounds where end-of-phase badness exceeded the reduced excess (Lemma 4.8); 0 expected"}}
			return out, emit(w, out)
		},
	}
}
