package scenario

import (
	"context"
	"strings"
	"testing"

	"smallbuffers/internal/network"
)

// faultScenario sweeps one protocol over a drop axis — the smallest
// scenario exercising the fault axis end to end.
func faultScenario() []byte {
	return []byte(`{
		"topology": {"name": "path", "params": {"n": 12}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 3}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 200,
		"seeds": [1, 2],
		"metrics": [{"name": "goodput"}, {"name": "drop_rate"}],
		"faults": [{"name": "drop", "params": {"p": "0"}}, {"name": "drop", "params": {"p": "1/10"}}]
	}`)
}

func TestFaultAxisNormalizesAndRoundTrips(t *testing.T) {
	sc, err := Parse(faultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 2 {
		t.Fatalf("fault axis = %v", sc.Faults)
	}
	// Rationals canonicalize to exact lowest-terms strings.
	if sc.Faults[1].Params["p"] != "1/10" {
		t.Errorf("drop p not canonicalized: %v", sc.Faults[1].Params)
	}
	out, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"faults"`) {
		t.Fatalf("canonical form lacks faults:\n%s", out)
	}
	re, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := re.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Errorf("fault axis breaks the marshal fixed point:\n%s\nvs\n%s", out, out2)
	}
}

func TestFaultAxisSingularKeyCollapses(t *testing.T) {
	sc, err := Parse([]byte(`{
		"topology": {"name": "path"},
		"protocol": {"name": "pts"},
		"adversary": {"name": "stream"},
		"bound": {"rho": "1/2", "sigma": 1},
		"rounds": 20,
		"fault": {"name": "link_flap", "params": {"p": "1/4"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 1 || sc.Faults[0].Name != "link_flap" {
		t.Fatalf("faults = %v", sc.Faults)
	}
	// link_flap defaults materialize.
	if sc.Faults[0].Params["period"] != 32 || sc.Faults[0].Params["down"] != 8 {
		t.Errorf("link_flap defaults not materialized: %v", sc.Faults[0].Params)
	}
	// A singleton axis marshals back to the singular key.
	out, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"fault"`) || strings.Contains(string(out), `"faults"`) {
		t.Fatalf("singleton fault axis did not collapse to the singular key:\n%s", out)
	}
}

// badFaultAxes are fault axes that Parse or the cell's model build must
// reject, keyed by what is wrong.
var badFaultAxes = map[string]string{
	"unknown name":      `"faults": [{"name": "meteor"}]`,
	"unknown param":     `"faults": [{"name": "drop", "params": {"p": "1/2", "q": 1}}]`,
	"missing required":  `"faults": [{"name": "drop"}]`,
	"p out of range":    `"faults": [{"name": "drop", "params": {"p": "3/2"}}]`,
	"duplicate fault":   `"faults": [{"name": "drop", "params": {"p": "1/2"}}, {"name": "drop", "params": {"p": "2/4"}}]`,
	"singular + plural": `"fault": {"name": "drop", "params": {"p": "1/2"}}, "faults": [{"name": "drop", "params": {"p": "1/4"}}]`,
}

func TestFaultAxisValidation(t *testing.T) {
	for name, body := range badFaultAxes {
		t.Run(name, func(t *testing.T) {
			sc, err := Parse([]byte(withAxis(body)))
			if err != nil {
				return // rejected at Parse/Validate
			}
			// Out-of-range params pass schema resolution and must fail the
			// cell at model build time instead.
			agg, err := sc.Run(context.Background())
			if err == nil && agg.Failed == 0 {
				t.Errorf("scenario with %s ran", name)
			}
		})
	}
}

func TestOnePointSweepBuildsFaultModel(t *testing.T) {
	sc, err := Parse([]byte(`{
		"topology": {"name": "path", "params": {"n": 12}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 3}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 200,
		"fault": {"name": "drop", "params": {"p": "1/4"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 1 {
		t.Fatal(agg.FirstErr())
	}
	if got := agg.Cells[0].Cell.Faults; got != "drop(p=1/4)" {
		t.Errorf("cell fault label = %q", got)
	}
	res := agg.Cells[0].Result
	if res.Dropped == 0 {
		t.Error("p=1/4 drop model dropped nothing over 200 rounds")
	}
	if res.Injected-res.Delivered-res.Dropped != res.Residual {
		t.Errorf("ledger broken: %+v", res)
	}
}

// TestFaultScenarioDigestStableAcrossWorkers carries the reproducibility
// gate up to the scenario layer: the same faulted scenario file digests
// identically at any sweep parallelism, and the zero-drop cells agree
// with the lossy cells on injected traffic (paired comparison).
func TestFaultScenarioDigestStableAcrossWorkers(t *testing.T) {
	digests := make(map[string]bool)
	var digest string
	for _, workers := range []int{1, 3, 8} {
		sc, err := Parse(faultScenario())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		sw.Workers = workers
		agg, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg.Failed > 0 {
			t.Fatal(agg.FirstErr())
		}
		digest = agg.Digest()
		digests[digest] = true
	}
	if len(digests) != 1 {
		t.Fatalf("digest varies with worker count: %v", digests)
	}

	sc, err := Parse(faultScenario())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs := agg.Records()
	if len(recs) != 4 { // 2 fault points × 2 seeds
		t.Fatalf("grid has %d cells, want 4", len(recs))
	}
	// Fault cells with the same seed replay identical traffic: the fault
	// axis is excluded from seed derivation.
	bySeed := map[string][]int{}
	for _, rec := range recs {
		if rec.Faults == "" {
			t.Fatalf("cell %q carries no fault label", rec.Cell)
		}
		key := rec.Cell[strings.LastIndex(rec.Cell, "seed="):]
		bySeed[key] = append(bySeed[key], rec.Injected)
		if rec.Faults == "drop(p=0)" && rec.Dropped != 0 {
			t.Errorf("p=0 cell %q dropped %d packets", rec.Cell, rec.Dropped)
		}
		if rec.Injected != rec.Delivered+rec.Dropped+rec.Residual {
			t.Errorf("cell %q breaks the packet ledger: %+v", rec.Cell, rec)
		}
	}
	for seed, injs := range bySeed {
		for _, inj := range injs[1:] {
			if inj != injs[0] {
				t.Errorf("%s: injected traffic differs across fault cells: %v", seed, injs)
			}
		}
	}
}

func TestFromFlagsFault(t *testing.T) {
	sc, err := FromFlags(Flags{
		Topology: "path", Protocol: "pts", Adversary: "random",
		Params:    map[string]any{"n": 12, "d": 3, "p": "1/8", "period": 16, "down": 4},
		Rho:       "1/2",
		Sigma:     2,
		Rounds:    100,
		Bandwidth: 1,
		Seed:      7,
		Fault:     "link_flap",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 1 || sc.Faults[0].Name != "link_flap" {
		t.Fatalf("faults = %v", sc.Faults)
	}
	// The fault picks its own params out of the flat namespace; the
	// topology keeps n, the adversary keeps d.
	if sc.Faults[0].Params["p"] != "1/8" || sc.Faults[0].Params["period"] != 16 || sc.Faults[0].Params["down"] != 4 {
		t.Errorf("fault params = %v", sc.Faults[0].Params)
	}
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.NewPath(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Faults) != 1 {
		t.Fatalf("sweep fault axis = %v", sw.Faults)
	}
	if m, err := sw.Faults[0].New(nw, 7); err != nil || m.Name() != "link_flap" {
		t.Fatalf("fault model = %v, %v", m, err)
	}
	if _, err := FromFlags(Flags{
		Topology: "path", Protocol: "pts", Adversary: "random",
		Rho: "1/2", Sigma: 2, Rounds: 100, Bandwidth: 1, Seed: 7,
		Fault: "meteor",
	}); err == nil {
		t.Error("unknown fault name accepted")
	}
}
