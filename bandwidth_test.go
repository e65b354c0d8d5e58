package smallbuffers_test

// Tests for the bandwidth axis through the public API: capacitated
// topology construction, the Sweep Bandwidths axis, monotonicity of the
// paper protocols' max load in B, per-link utilization reporting, and
// super-unit demand admissibility.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
)

func TestNetworkBandwidthAccessors(t *testing.T) {
	nw, err := sb.NewPath(8, sb.WithUniformBandwidth(4), network.WithLinkBandwidth(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Bandwidth(0); got != 4 {
		t.Errorf("Bandwidth(0) = %d, want 4", got)
	}
	if got := nw.Bandwidth(3); got != 2 {
		t.Errorf("Bandwidth(3) = %d, want 2 (per-link override)", got)
	}
	if got := nw.BottleneckBandwidth(); got != 2 {
		t.Errorf("BottleneckBandwidth = %d, want 2", got)
	}
	if b, uniform := nw.UniformBandwidth(); uniform {
		t.Errorf("UniformBandwidth = (%d, true), want non-uniform", b)
	}
	plain, err := sb.NewPath(4)
	if err != nil {
		t.Fatal(err)
	}
	if b, uniform := plain.UniformBandwidth(); !uniform || b != 1 {
		t.Errorf("default UniformBandwidth = (%d, %t), want (1, true)", b, uniform)
	}
}

func TestSweepBandwidthAxisMonotone(t *testing.T) {
	// The acceptance shape of the redesign: max load non-increasing in B
	// for PTS and PPTS on paths, with identical injections per B. The first
	// inputs are Bandwidths sweeps through the public Sweep API at
	// super-unit demand (ρ=2), where the decrease is strict territory; the
	// rest are the paper protocols' cells of the E12 experiment files.
	monotone := func(t *testing.T, cells []harness.CellResult) {
		t.Helper()
		prevLoad, prevInjected := -1, -1
		for _, cr := range cells {
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			if prevLoad >= 0 && cr.Result.MaxLoad > prevLoad {
				t.Errorf("max load increased with bandwidth: B=%d → %d packets (previous %d)",
					cr.Cell.Bandwidth, cr.Result.MaxLoad, prevLoad)
			}
			if prevInjected >= 0 && cr.Result.Injected != prevInjected {
				t.Errorf("B=%d replayed %d injections, want %d (bandwidth must not change the derived seed)",
					cr.Cell.Bandwidth, cr.Result.Injected, prevInjected)
			}
			prevLoad, prevInjected = cr.Result.MaxLoad, cr.Result.Injected
		}
	}

	dests := func(n int) []sb.NodeID {
		var out []sb.NodeID
		for k := 0; k < 4; k++ {
			out = append(out, sb.NodeID(n-4+k))
		}
		return out
	}
	cases := []struct {
		name  string
		proto func() sb.Protocol
		dests []sb.NodeID
	}{
		{"PTS", func() sb.Protocol { return core.NewPTS() }, nil},
		{"PPTS", func() sb.Protocol { return sb.NewPPTS() }, dests(48)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep := &sb.Sweep{
				Protocols:  []sb.SweepProtocol{sb.NewSweepProtocol(tc.name, tc.proto)},
				Topologies: []sb.SweepTopology{sb.SweepPath(48)},
				Bounds:     []sb.Bound{{Rho: sb.NewRat(2, 1), Sigma: 3}},
				Adversaries: []sb.SweepAdversary{
					sb.SweepRandomAdversary(tc.dests),
				},
				Bandwidths:      []int{2, 4, 8},
				Rounds:          []int{600},
				VerifyAdversary: true,
			}
			res, err := sweep.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 3 {
				t.Fatalf("completed %d cells, want 3: %v", res.Completed, res.FirstErr())
			}
			monotone(t, res.Cells)
		})
	}

	files, err := filepath.Glob(filepath.Join("testdata", "experiments", "e12-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no E12 files: %v", err)
	}
	for _, f := range files {
		sc, err := sb.LoadScenarioFile(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sc.Name, func(t *testing.T) {
			agg, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Each file runs one paper protocol; its cells are in B order.
			var paper []harness.CellResult
			for _, cr := range agg.Cells {
				if !strings.HasPrefix(cr.Cell.Protocol, "greedy-") {
					paper = append(paper, cr)
				}
			}
			if len(paper) < 3 {
				t.Fatalf("%d pts/ppts cells, want one per bandwidth", len(paper))
			}
			monotone(t, paper)
		})
	}
}

func TestSweepBandwidthAxisValidation(t *testing.T) {
	sweep := &sb.Sweep{
		Protocols:   []sb.SweepProtocol{sb.NewSweepProtocol("PTS", func() sb.Protocol { return core.NewPTS() })},
		Topologies:  []sb.SweepTopology{sb.SweepPath(8)},
		Bounds:      []sb.Bound{{Rho: sb.NewRat(1, 1), Sigma: 1}},
		Adversaries: []sb.SweepAdversary{sb.SweepRandomAdversary(nil)},
		Bandwidths:  []int{0},
		Rounds:      []int{10},
	}
	if _, err := sweep.Run(context.Background()); err == nil {
		t.Error("sweep accepted bandwidth axis entry 0")
	}
}

func TestSuperUnitRateAdmissibility(t *testing.T) {
	fast, err := sb.NewPath(16, sb.WithUniformBandwidth(4))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sb.NewPath(16)
	if err != nil {
		t.Fatal(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(3, 1), Sigma: 2}
	if _, err := sb.NewRandomAdversary(fast, bound, nil, 1); err != nil {
		t.Errorf("ρ=3 rejected on a B=4 network: %v", err)
	}
	if _, err := sb.NewRandomAdversary(slow, bound, nil, 1); err == nil {
		t.Error("ρ=3 accepted on a unit-capacity network")
	}
	// A super-unit pattern must still verify against its declared bound.
	adv, err := sb.NewRandomAdversary(fast, bound, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.VerifyPrefix(fast, adv, 400); err != nil {
		t.Errorf("shaped super-unit pattern violated its own bound: %v", err)
	}
}

// TestLinkUtilizationReported reads a run's busiest link from a
// link_util_series observer: never the sink, and at about half of its
// rounds × B budget for a rate-1 stream over B = 2 links.
func TestLinkUtilizationReported(t *testing.T) {
	nw, err := sb.NewPath(8, sb.WithUniformBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewStream(sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}, 0, 7)
	links := metrics.NewLinkUtilSeries(16, 4)
	res, err := sb.RunContext(context.Background(),
		sb.NewSpec(nw, core.NewPTS(core.WithDrain()), adv, 200, sb.WithObservers(links)))
	if err != nil {
		t.Fatal(err)
	}
	s := links.Summarize()
	link, forwards, bandwidth := s.Scalar("busiest_link"), s.Scalar("busiest_forwards"), s.Scalar("busiest_bandwidth")
	if link < 0 || link >= 7 || bandwidth != 2 {
		t.Fatalf("busiest link %d at B = %d, want one of links 0…6 at B = 2 (the sink at 7 has none)", link, bandwidth)
	}
	if util := float64(forwards) / float64(res.Rounds*bandwidth); util <= 0.2 || util >= 0.8 {
		t.Errorf("busiest link %d utilization = %.2f, want ≈ 0.5 for a rate-1 stream on B=2", link, util)
	}
}

func TestEngineDeliversEverythingFasterWithBandwidth(t *testing.T) {
	// Sanity on throughput: the same demand leaves fewer packets in flight
	// at the horizon when links are faster.
	residualAt := func(b int) int {
		nw, err := sb.NewPath(32, sb.WithUniformBandwidth(b))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(2, 1), Sigma: 2}, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.RunContext(context.Background(),
			sb.NewSpec(nw, core.NewPTS(core.WithDrain()), adv, 400))
		if err != nil {
			t.Fatal(err)
		}
		return res.Residual
	}
	if r2, r8 := residualAt(2), residualAt(8); r8 > r2 {
		t.Errorf("residual grew with bandwidth: B=2 → %d, B=8 → %d", r2, r8)
	}
}
