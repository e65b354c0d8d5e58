package experiments

import (
	"context"
	"io"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/lowerbound"
	"smallbuffers/internal/network"
	"smallbuffers/internal/opt"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// E9Exact computes the exact offline optimum on tiny instances and places
// it between the Theorem 5.1 floor and the online protocols.
func E9Exact() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "exhaustive offline optimum on tiny instances",
		Paper: "Theorem 5.1 holds against *all* protocols — exact check at toy scale",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			table := stats.NewTable("exact optimum vs floor and PPTS",
				"instance", "rounds", "floor", "optimum", "PPTS", "states", "ok")
			ok := true

			// Instance 1: the smallest Section 5 pattern.
			lb, err := lowerbound.New(2, 2, rat.New(1, 2))
			if err != nil {
				return nil, err
			}
			nw, err := lb.Network()
			if err != nil {
				return nil, err
			}
			optRes, err := opt.Solve(opt.Config{
				Net: nw, Adversary: lb, Rounds: lb.Rounds(),
				MaxStates: 4_000_000, MaxBranch: 1 << 16,
			})
			if err != nil {
				return nil, err
			}
			lb2, err := lowerbound.New(2, 2, rat.New(1, 2))
			if err != nil {
				return nil, err
			}
			simRes, err := sim.Run(ctx, sim.NewSpec(nw, core.NewPPTS(), lb2, lb2.Rounds()))
			if err != nil {
				return nil, err
			}
			floor := int(lb.PredictedBound().Ceil())
			rowOK := optRes.OptMaxLoad >= floor && simRes.MaxLoad >= optRes.OptMaxLoad
			ok = ok && rowOK
			table.AddRow("LB(m=2,ℓ=2,ρ=1/2)", lb.Rounds(), floor, optRes.OptMaxLoad,
				simRes.MaxLoad, optRes.StatesExplored, stats.CheckMark(rowOK))

			// Instance 2: a crafted collision the optimum cannot dodge.
			nw2 := network.MustPath(6)
			mkAdv := func() adversary.Adversary {
				return adversary.NewSchedule().
					At(0, 0, 5).At(0, 0, 4).At(0, 0, 3).
					At(2, 1, 5).At(2, 1, 4).
					Build(adversary.Bound{Rho: rat.One, Sigma: 2})
			}
			optRes2, err := opt.Solve(opt.Config{Net: nw2, Adversary: mkAdv(), Rounds: 8})
			if err != nil {
				return nil, err
			}
			simRes2, err := sim.Run(ctx, sim.NewSpec(nw2, core.NewPPTS(), mkAdv(), 8))
			if err != nil {
				return nil, err
			}
			rowOK2 := optRes2.OptMaxLoad == 3 && simRes2.MaxLoad >= optRes2.OptMaxLoad
			ok = ok && rowOK2
			table.AddRow("triple collision", 8, 3, optRes2.OptMaxLoad,
				simRes2.MaxLoad, optRes2.StatesExplored, stats.CheckMark(rowOK2))

			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{
					"floor ≤ optimum ≤ every online protocol; at toy scale the Ω floor is small, the ordering is the point",
				}}
			return out, emit(w, out)
		},
	}
}
