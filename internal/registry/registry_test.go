package registry

import (
	"strings"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

func TestBuiltinCatalog(t *testing.T) {
	wantTopos := []string{"binary", "caterpillar", "path", "spider"}
	if got := TopologyNames(); strings.Join(got, ",") != strings.Join(wantTopos, ",") {
		t.Errorf("topologies = %v, want %v", got, wantTopos)
	}
	for _, name := range []string{"pts", "ppts", "tree-pts", "tree-ppts", "hpts", "downhill", "oddeven",
		"greedy-fifo", "greedy-lifo", "greedy-lis", "greedy-sis", "greedy-ntg", "greedy-ftg"} {
		if _, err := LookupProtocol(name); err != nil {
			t.Errorf("LookupProtocol(%q): %v", name, err)
		}
	}
	for _, name := range []string{"random", "hotspot", "stream", "roundrobin", "burst", "greedykiller", "lowerbound"} {
		if _, err := LookupAdversary(name); err != nil {
			t.Errorf("LookupAdversary(%q): %v", name, err)
		}
	}
	if len(PolicyNames()) != 6 {
		t.Errorf("PolicyNames() = %v, want 6 policies", PolicyNames())
	}
	if _, err := LookupInvariant("max-load"); err != nil {
		t.Errorf("LookupInvariant(max-load): %v", err)
	}
	wantMetrics := []string{"delivery", "drop_rate", "goodput", "goodput_window",
		"injection_concentration", "latency", "link_util_series", "load_hist",
		"load_series", "max_load", "window_load"}
	if got := MetricNames(); strings.Join(got, ",") != strings.Join(wantMetrics, ",") {
		t.Errorf("metrics = %v, want %v", got, wantMetrics)
	}
	m, err := LookupMetric("load_series")
	if err != nil {
		t.Fatalf("LookupMetric(load_series): %v", err)
	}
	p, err := m.Params.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := m.Build(p, 100); err != nil || c.Name() != "load_series" {
		t.Errorf("Build(load_series) = %v, %v", c, err)
	}
	// cap/tail size allocations and arrive over the network: oversized
	// values must be rejected, not allocated.
	huge, err := m.Params.Resolve(map[string]any{"tail": 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Build(huge, 100); err == nil {
		t.Error("Build accepted a 2^30-round tail")
	}
}

func TestLookupDidYouMean(t *testing.T) {
	_, err := LookupProtocol("ptss")
	if err == nil {
		t.Fatal("want error for unknown protocol")
	}
	for _, want := range []string{`did you mean "pts"?`, "registered:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// Far-off names get the enumeration but no suggestion.
	_, err = LookupTopology("zzzzzzz")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("want suggestion-free error, got %v", err)
	}
}

func TestSchemaResolve(t *testing.T) {
	s := Schema{
		{Name: "n", Kind: Int, Default: 64},
		{Name: "drain", Kind: Bool, Default: false},
		{Name: "rho", Kind: RatKind, Default: rat.One},
		{Name: "dests", Kind: Ints, Default: []int(nil)},
	}

	t.Run("defaults fill omitted params", func(t *testing.T) {
		p, err := s.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Int("n") != 64 || p.Bool("drain") || !p.Rat("rho").Equal(rat.One) {
			t.Errorf("defaults not applied: %v", p)
		}
	})

	t.Run("JSON-decoded values coerce", func(t *testing.T) {
		p, err := s.Resolve(map[string]any{
			"n": float64(16), "drain": true, "rho": "1/2", "dests": []any{float64(3), float64(5)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Int("n") != 16 || !p.Bool("drain") || !p.Rat("rho").Equal(rat.New(1, 2)) {
			t.Errorf("coercion wrong: %v", p)
		}
		if d := p.Ints("dests"); len(d) != 2 || d[0] != 3 || d[1] != 5 {
			t.Errorf("dests = %v", d)
		}
	})

	t.Run("integral rats accepted, canonicalized", func(t *testing.T) {
		p, err := s.Resolve(map[string]any{"rho": float64(2)})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Rat("rho").Equal(rat.FromInt(2)) {
			t.Errorf("rho = %v", p.Rat("rho"))
		}
	})

	t.Run("unknown param suggests", func(t *testing.T) {
		_, err := s.Resolve(map[string]any{"drian": true})
		if err == nil || !strings.Contains(err.Error(), `did you mean "drain"?`) {
			t.Errorf("got %v", err)
		}
	})

	t.Run("fractional float rejected for int", func(t *testing.T) {
		if _, err := s.Resolve(map[string]any{"n": 1.5}); err == nil {
			t.Error("want error for fractional int")
		}
	})

	t.Run("bad rat rejected", func(t *testing.T) {
		if _, err := s.Resolve(map[string]any{"rho": "1/0"}); err == nil {
			t.Error("want error for 1/0")
		}
	})

	t.Run("required param enforced", func(t *testing.T) {
		req := Schema{{Name: "bound", Kind: Int, Required: true}}
		if _, err := req.Resolve(nil); err == nil || !strings.Contains(err.Error(), "required") {
			t.Errorf("got %v", err)
		}
	})
}

func TestParamsJSONMapCanonicalizesRats(t *testing.T) {
	p := Params{"rho": rat.New(2, 4), "n": 8, "drain": true}
	m := p.JSONMap()
	if m["rho"] != "1/2" {
		t.Errorf("rho marshals as %v, want \"1/2\"", m["rho"])
	}
	if m["n"] != 8 || m["drain"] != true {
		t.Errorf("m = %v", m)
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := RegisterProtocol(Protocol{Name: "pts", Build: func(Params) (sim.Protocol, error) { return nil, nil }}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterProtocol(Protocol{Name: "no-build"}); err == nil {
		t.Error("Build-less protocol accepted")
	}
	if err := RegisterAdversary(Adversary{Name: "neither"}); err == nil {
		t.Error("adversary with neither Build nor Prepare accepted")
	}
	if err := RegisterTopology(Topology{Name: "  "}); err == nil {
		t.Error("blank name accepted")
	}
}

func TestSpreadDestinations(t *testing.T) {
	path := network.MustPath(8)
	d := SpreadDestinations(path, 3)
	if len(d) != 3 || d[0] != 5 || d[2] != 7 {
		t.Errorf("path dests = %v", d)
	}
	// Oversized d clamps to n−1.
	if got := SpreadDestinations(path, 99); len(got) != 7 {
		t.Errorf("clamped dests = %v", got)
	}
	spider, err := network.SpiderTree(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	td := SpreadDestinations(spider, 2)
	if len(td) == 0 {
		t.Error("tree destinations empty")
	}
	for _, v := range td {
		if !spider.Valid(v) {
			t.Errorf("invalid destination %d", v)
		}
	}
}

func TestLowerboundPrepare(t *testing.T) {
	adv, err := LookupAdversary("lowerbound")
	if err != nil {
		t.Fatal(err)
	}
	if !adv.SelfHosting() {
		t.Fatal("lowerbound must be self-hosting")
	}
	p, err := adv.Params.Resolve(map[string]any{"m": 4, "ell": 2})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := adv.Prepare(adversary.Bound{Rho: rat.New(3, 4), Sigma: 99}, p)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Bound.Sigma != 1 {
		t.Errorf("lowerbound σ = %d, want the construction's 1", prep.Bound.Sigma)
	}
	if prep.Rounds != 64 { // m^(ℓ+1)
		t.Errorf("rounds = %d, want 64", prep.Rounds)
	}
	if prep.Net == nil || prep.Adversary == nil || prep.Note == "" {
		t.Error("incomplete Prepared")
	}
}

// TestWindowParamsBounded pins that the windowed collectors' window and
// decay params — network-supplied via aqtserve — are validated at build
// time.
func TestWindowParamsBounded(t *testing.T) {
	m, err := LookupMetric("window_load")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Params.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := m.Build(p, 100); err != nil || c.Name() != "window_load" {
		t.Fatalf("Build(window_load) = %v, %v", c, err)
	}
	for _, bad := range []map[string]any{
		{"window": 1 << 30},
		{"window": 0},
		{"decay": 1001},
		{"decay": -1},
	} {
		p, err := m.Params.Resolve(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Build(p, 100); err == nil {
			t.Errorf("Build accepted %v", bad)
		}
	}
	gw, err := LookupMetric("goodput_window")
	if err != nil {
		t.Fatal(err)
	}
	p, err = gw.Params.Resolve(map[string]any{"window": 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Build(p, 100); err == nil {
		t.Error("goodput_window accepted a 2^20-round window")
	}
}

// TestOptionalWindowParamsBounded covers the opt-in windows on latency
// and link_util_series: window 0 (the default) is off and legal, the
// same 2^16 / permille ceilings apply, and the unwindowed defaults
// still build.
func TestOptionalWindowParamsBounded(t *testing.T) {
	for _, name := range []string{"latency", "link_util_series"} {
		m, err := LookupMetric(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Params.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := m.Build(p, 100); err != nil || c.Name() != name {
			t.Fatalf("Build(%s) with defaults = %v, %v", name, c, err)
		}
		p, err = m.Params.Resolve(map[string]any{"window": 64, "decay": 500})
		if err != nil {
			t.Fatal(err)
		}
		if c, err := m.Build(p, 100); err != nil || c.Name() != name {
			t.Fatalf("Build(%s) windowed = %v, %v", name, c, err)
		}
		for _, bad := range []map[string]any{
			{"window": 1 << 30},
			{"window": -1},
			{"decay": 1001},
			{"decay": -1},
		} {
			p, err := m.Params.Resolve(bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Build(p, 100); err == nil {
				t.Errorf("%s accepted %v", name, bad)
			}
		}
	}
}
