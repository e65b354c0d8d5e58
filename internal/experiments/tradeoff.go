package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
	"smallbuffers/internal/stats"
)

// E6Tradeoff reproduces the headline space-bandwidth tradeoff: on a fixed
// line with every node a potential destination (d ≈ n), running at rate
// ρ = 1/k buys buffer space k·d^(1/k) + σ + 1 instead of d. The k = 1 row
// is PPTS at full rate; k ≥ 2 rows are HPTS with ℓ = k.
func E6Tradeoff() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "space vs bandwidth: buffer need as a function of k = ⌊1/ρ⌋",
		Paper: "abstract: O(k·d^(1/k)) sufficient, Ω(d^(1/k)/k) necessary",
		Run: func(ctx context.Context, w io.Writer) (*Outcome, error) {
			const n = 256 // 2^8: admits ℓ ∈ {1,2,4,8}
			const sigma = 2
			table := stats.NewTable(
				fmt.Sprintf("n = %d, d = %d destinations, σ = %d", n, n-1, sigma),
				"k=⌊1/ρ⌋", "ρ", "protocol", "measured", "upper k·d^(1/k)+σ+1", "lower d^(1/k)/2k", "ok")
			ok := true
			nw := network.MustPath(n)
			// Destinations: every node (the regime where the tradeoff bites).
			dests := make([]network.NodeID, 0, n-1)
			for v := 1; v < n; v++ {
				dests = append(dests, network.NodeID(v))
			}
			for _, k := range []int{1, 2, 4, 8} {
				rho := rat.New(1, int64(k))
				bound := adversary.Bound{Rho: rho, Sigma: sigma}
				adv, err := adversary.NewRandom(nw, bound, dests, 6, adversary.WithAttempts(24))
				if err != nil {
					return nil, err
				}
				var proto sim.Protocol
				var upper int
				if k == 1 {
					proto = core.NewPPTS()
					upper = 1 + (n - 1) + sigma
				} else {
					proto = core.NewHPTS(k)
					h, err := core.HierarchyFor(n, k)
					if err != nil {
						return nil, err
					}
					upper = core.HPTSSpaceBound(h, sigma)
				}
				res, err := sim.Run(ctx, sim.NewSpec(nw, proto, adv, 10*k*n))
				if err != nil {
					return nil, err
				}
				lower := math.Pow(float64(n-1), 1/float64(k)) / float64(2*k)
				rowOK := res.MaxLoad <= upper
				ok = ok && rowOK
				table.AddRow(k, rho, proto.Name(), res.MaxLoad, upper,
					fmt.Sprintf("%.1f", lower), stats.CheckMark(rowOK))
			}
			out := &Outcome{Tables: []*stats.Table{table}, OK: ok,
				Notes: []string{
					"expected shape: the admissible space collapses exponentially in k — d at k=1, 2√d at k=2, …, ~2·log d at k=log d",
					"interpretation (paper §1): multiplying destinations by α costs either ×α buffers or ×O(log α) bandwidth headroom",
				}}
			return out, emit(w, out)
		},
	}
}
