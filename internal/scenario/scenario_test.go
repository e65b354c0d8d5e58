package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/core"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/sim"
)

// minimal returns a valid one-point scenario as hand-written JSON.
func minimal() []byte {
	return []byte(`{
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 3}},
		"bound": {"rho": "2/4", "sigma": 2},
		"rounds": 50,
		"seed": 7
	}`)
}

func TestParseNormalizes(t *testing.T) {
	sc, err := Parse(minimal())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Bounds[0].Rho != "1/2" {
		t.Errorf("rho not reduced: %q", sc.Bounds[0].Rho)
	}
	if sc.Seeds[0] != 7 {
		t.Errorf("seed = %v", sc.Seeds)
	}
	// Defaults are materialized: ppts grows its drain parameter.
	if v, ok := sc.Protocols[0].Params["drain"]; !ok || v != false {
		t.Errorf("drain default not materialized: %v", sc.Protocols[0].Params)
	}
	if !sc.IsSingle() {
		t.Error("one-point scenario not single")
	}
}

func TestMarshalLoadMarshalFixedPoint(t *testing.T) {
	sc, err := Parse(minimal())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Parse(first)
	if err != nil {
		t.Fatalf("canonical form does not load: %v\n%s", err, first)
	}
	second, err := sc2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("Marshal∘Load not a fixed point:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestMarshalLoadMarshalFixedPointProperty drives the fixed-point check
// over randomized scenarios spanning every registered component, list- and
// scalar-valued axes, and random parameter values.
func TestMarshalLoadMarshalFixedPointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 200; trial++ {
		sc := randomScenario(rng)
		first, err := sc.Marshal()
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		sc2, err := Parse(first)
		if err != nil {
			t.Fatalf("trial %d: canonical form does not load: %v\n%s", trial, err, first)
		}
		second, err := sc2.Marshal()
		if err != nil {
			t.Fatalf("trial %d: remarshal: %v", trial, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("trial %d: not a fixed point:\n--- first\n%s\n--- second\n%s", trial, first, second)
		}
	}
}

// randomScenario builds a random valid scenario: random component subsets
// with random schema-typed parameter values. Validation only resolves
// schemas (it does not build the components), so arbitrary magnitudes are
// fine.
func randomScenario(rng *rand.Rand) *Scenario {
	sc := &Scenario{
		Name:   fmt.Sprintf("random-%d", rng.Int63()),
		Verify: rng.Intn(2) == 0,
	}
	if rng.Intn(4) == 0 {
		// Self-hosting shape: the lower-bound pattern alone.
		sc.Adversaries = []Component{{Name: "lowerbound", Params: map[string]any{
			"m": 2 + rng.Intn(6), "ell": 2 + rng.Intn(3),
		}}}
		sc.Bounds = []Bound{{Rho: fmt.Sprintf("%d/%d", 1+rng.Intn(3), 1+rng.Intn(4)), Sigma: rng.Intn(4)}}
	} else {
		topoNames := registry.TopologyNames()
		for _, name := range pick(rng, topoNames) {
			e, _ := registry.LookupTopology(name)
			sc.Topologies = append(sc.Topologies, Component{Name: name, Params: randomParams(rng, e.Params)})
		}
		advPool := []string{"random", "hotspot", "stream", "roundrobin", "burst", "greedykiller"}
		for _, name := range pick(rng, advPool) {
			e, _ := registry.LookupAdversary(name)
			sc.Adversaries = append(sc.Adversaries, Component{Name: name, Params: randomParams(rng, e.Params)})
		}
		seenBound := map[string]bool{} // post-reduction identity, matching Validate
		for i := 0; i <= rng.Intn(2); i++ {
			b := Bound{Rho: fmt.Sprintf("%d/%d", rng.Intn(5), 1+rng.Intn(6)), Sigma: rng.Intn(5)}
			key := rat.MustParse(b.Rho).String() + "|" + fmt.Sprint(b.Sigma)
			if seenBound[key] {
				continue
			}
			seenBound[key] = true
			sc.Bounds = append(sc.Bounds, b)
		}
		for i := 0; i <= rng.Intn(2); i++ {
			sc.Rounds = appendUnique(sc.Rounds, rng.Intn(5000))
		}
		if rng.Intn(2) == 0 {
			for i := 0; i <= rng.Intn(3); i++ {
				sc.Bandwidths = appendUnique(sc.Bandwidths, 1+rng.Intn(8))
			}
		}
	}
	for _, name := range pick(rng, registry.ProtocolNames()) {
		e, _ := registry.LookupProtocol(name)
		sc.Protocols = append(sc.Protocols, Component{Name: name, Params: randomParams(rng, e.Params)})
	}
	nSeeds := 1 + rng.Intn(3)
	if len(sc.Adversaries) == 1 && sc.Adversaries[0].Name == "lowerbound" {
		nSeeds = 1 // the construction is deterministic; a seeds axis is rejected
	}
	for i := 0; i < nSeeds; i++ {
		sc.Seeds = appendUnique(sc.Seeds, rng.Int63n(1000))
	}
	if rng.Intn(3) == 0 {
		sc.Invariants = []Component{{Name: "max-load", Params: map[string]any{"bound": 1 + rng.Intn(100)}}}
	}
	return sc
}

// appendUnique appends v unless already present (axes reject duplicates).
func appendUnique[T comparable](s []T, v T) []T {
	for _, e := range s {
		if e == v {
			return s
		}
	}
	return append(s, v)
}

// pick returns a non-empty random subset (distinct, order preserved).
func pick(rng *rand.Rand, names []string) []string {
	var out []string
	for _, n := range names {
		if rng.Intn(len(names)) == 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []string{names[rng.Intn(len(names))]}
	}
	return out
}

// randomParams draws a random raw value per schema parameter.
func randomParams(rng *rand.Rand, s registry.Schema) map[string]any {
	out := map[string]any{}
	for _, p := range s {
		if rng.Intn(2) == 0 && !p.Required {
			continue // exercise default materialization
		}
		switch p.Kind {
		case registry.Int:
			out[p.Name] = rng.Intn(64) + 1
		case registry.Bool:
			out[p.Name] = rng.Intn(2) == 0
		case registry.RatKind:
			out[p.Name] = fmt.Sprintf("%d/%d", rng.Intn(4)+1, rng.Intn(4)+1)
		case registry.Ints:
			k := rng.Intn(3)
			list := make([]any, k)
			for i := range list {
				list[i] = float64(rng.Intn(32))
			}
			out[p.Name] = list
		case registry.String:
			out[p.Name] = "x"
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestEveryRegistryEntryCompilesAndRuns is the registry-coverage
// guarantee: every registered protocol, adversary, topology, and
// invariant is constructible from scenario JSON and survives a short run.
func TestEveryRegistryEntryCompilesAndRuns(t *testing.T) {
	ctx := context.Background()
	runOne := func(t *testing.T, src string) {
		t.Helper()
		sc, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := sc.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Completed != 1 {
			t.Fatalf("run: %v", agg.FirstErr())
		}
	}

	for _, proto := range registry.ProtocolNames() {
		t.Run("protocol/"+proto, func(t *testing.T) {
			runOne(t, fmt.Sprintf(`{
				"topology": {"name": "path", "params": {"n": 64}},
				"protocol": {"name": %q},
				"adversary": {"name": "stream"},
				"bound": {"rho": "1/2", "sigma": 1},
				"rounds": 10
			}`, proto))
		})
	}
	for _, adv := range registry.AdversaryNames() {
		t.Run("adversary/"+adv, func(t *testing.T) {
			e, err := registry.LookupAdversary(adv)
			if err != nil {
				t.Fatal(err)
			}
			if e.SelfHosting() {
				runOne(t, fmt.Sprintf(`{
					"protocol": {"name": "ppts"},
					"adversary": {"name": %q},
					"bound": {"rho": "1/2", "sigma": 1}
				}`, adv))
				return
			}
			runOne(t, fmt.Sprintf(`{
				"topology": {"name": "path", "params": {"n": 64}},
				"protocol": {"name": "ppts"},
				"adversary": {"name": %q},
				"bound": {"rho": "1/2", "sigma": 2},
				"rounds": 10
			}`, adv))
		})
	}
	for _, topo := range registry.TopologyNames() {
		t.Run("topology/"+topo, func(t *testing.T) {
			runOne(t, fmt.Sprintf(`{
				"topology": {"name": %q},
				"protocol": {"name": "greedy-fifo"},
				"adversary": {"name": "random", "params": {"d": 2}},
				"bound": {"rho": "1/2", "sigma": 2},
				"rounds": 10
			}`, topo))
		})
	}
	for _, inv := range registry.InvariantNames() {
		t.Run("invariant/"+inv, func(t *testing.T) {
			runOne(t, fmt.Sprintf(`{
				"topology": {"name": "path", "params": {"n": 16}},
				"protocol": {"name": "ppts"},
				"adversary": {"name": "stream"},
				"bound": {"rho": "1/2", "sigma": 1},
				"rounds": 10,
				"invariants": [{"name": %q, "params": {"bound": 1000}}]
			}`, inv))
		})
	}
}

// TestSingleAndSweepAgree pins the seed semantics: a one-point scenario's
// one-cell sweep produces the same Result as a single sim.Run of the same
// components built by hand, with the scenario seed handed to the
// adversary verbatim.
func TestSingleAndSweepAgree(t *testing.T) {
	src := `{
		"topology": {"name": "path", "params": {"n": 32}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "hotspot", "params": {"d": 4}},
		"bound": {"rho": "1", "sigma": 2},
		"rounds": 300,
		"seed": 99,
		"verify": true
	}`
	nw, err := network.NewPath(32)
	if err != nil {
		t.Fatal(err)
	}
	bound := adversary.Bound{Rho: rat.FromInt(1), Sigma: 2}
	adv, err := adversary.NewHotSpot(nw, bound, registry.SpreadDestinations(nw, 4), 99)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(context.Background(), sim.NewSpec(nw, core.NewPPTS(), adv, 300, sim.WithVerifyAdversary()))
	if err != nil {
		t.Fatal(err)
	}

	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Requested != 1 || agg.Completed != 1 {
		t.Fatalf("sweep = %d requested / %d completed, want 1/1 (first err: %v)", agg.Requested, agg.Completed, agg.FirstErr())
	}
	if got := agg.Cells[0].Result; !reflect.DeepEqual(direct, got) {
		t.Errorf("hand-built run and sweep cell differ:\nsim.Run: %+v\nsweep:   %+v", direct, got)
	}
}

func TestSweepGridShape(t *testing.T) {
	src := `{
		"topologies": [{"name": "path", "params": {"n": 16}}, {"name": "path", "params": {"n": 32}}],
		"protocols": [{"name": "ppts"}, {"name": "greedy-fifo"}],
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 20,
		"bandwidths": [1, 2],
		"seeds": [1, 2, 3]
	}`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if sc.IsSingle() {
		t.Fatal("list-valued scenario claims to be single")
	}
	if _, err := sc.Note(); err == nil {
		t.Error("Note on a grid must fail")
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 3 // topologies × protocols × bandwidths × seeds
	if agg.Requested != want || agg.Completed != want {
		t.Errorf("grid = %d requested / %d completed, want %d (first err: %v)",
			agg.Requested, agg.Completed, want, agg.FirstErr())
	}
}

func TestLowerBoundScenario(t *testing.T) {
	src := `{
		"protocol": {"name": "ppts"},
		"adversary": {"name": "lowerbound", "params": {"m": 4, "ell": 2}},
		"bound": {"rho": "3/4", "sigma": 0}
	}`
	sc, err := Parse([]byte(src))
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
	cell := agg.Cells[0].Cell
	if cell.Rounds != 64 {
		t.Errorf("rounds = %d, want the construction's 64", cell.Rounds)
	}
	if cell.Bound.Sigma != 1 {
		t.Errorf("sigma = %d, want the construction's 1", cell.Bound.Sigma)
	}
	if cell.Topology != "lowerbound(ell=2,m=4)" {
		t.Errorf("topology label = %q", cell.Topology)
	}
	note, err := sc.Note()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "Theorem 5.1") {
		t.Errorf("note = %q", note)
	}
}

// validationErrorCases are malformed scenario documents, each with a
// fragment of the error Parse must return.
var validationErrorCases = []struct {
	name, src, want string
}{
	{"unknown protocol suggests", `{
		"topology": {"name": "path"}, "protocol": {"name": "ptss"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, `did you mean "pts"?`},
	{"unknown topology", `{
		"topology": {"name": "ring"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "unknown topology"},
	{"unknown param suggests", `{
		"topology": {"name": "path", "params": {"m": 8}}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, `did you mean "n"?`},
	{"bad rho", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "fast", "sigma": 1}, "rounds": 10
	}`, "bad"},
	{"rate denominator above the cap", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "random"}, "bound": {"rho": "1/4611686018427387904", "sigma": 2}, "rounds": 10
	}`, "denominator above"},
	{"rounds above the cap", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": [10, 16777217]
	}`, "exceeds the limit of 16777216 rounds"},
	{"missing rounds", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}
	}`, "no rounds"},
	{"lowerbound rejects topology", `{
		"topology": {"name": "path"}, "protocol": {"name": "ppts"},
		"adversary": {"name": "lowerbound"}, "bound": {"rho": "1/2", "sigma": 1}
	}`, "dictates its own topology"},
	{"lowerbound rejects a seeds axis", `{
		"protocol": {"name": "ppts"}, "seeds": [1, 2, 3],
		"adversary": {"name": "lowerbound"}, "bound": {"rho": "1/2", "sigma": 1}
	}`, "drop seeds"},
	{"lowerbound rejects rounds", `{
		"protocol": {"name": "ppts"},
		"adversary": {"name": "lowerbound"}, "bound": {"rho": "1/2", "sigma": 1}, "rounds": 10
	}`, "dictates its own horizon"},
	{"singular and plural clash", `{
		"topology": {"name": "path"}, "topologies": [{"name": "path"}],
		"protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "use one"},
	{"unknown top-level key", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"}, "rho": "1",
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "unknown field"},
	{"duplicate axis entry", `{
		"topology": {"name": "path"}, "protocols": [{"name": "pts"}, {"name": "pts"}],
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "duplicate protocol"},
	{"duplicate seed", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"}, "seeds": [7, 7],
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "duplicate seed"},
	{"duplicate bound after reduction", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bounds": [{"rho": "2/4", "sigma": 1}, {"rho": "1/2", "sigma": 1}],
		"rounds": 10
	}`, "duplicate bound"},
	{"duplicate bandwidth", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"}, "bandwidths": [2, 2],
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "duplicate bandwidths"},
	{"zero bandwidth", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"}, "bandwidth": 0,
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "bandwidth"},
}

func TestValidationErrors(t *testing.T) {
	for _, tc := range validationErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func TestInvariantViolationAbortsRun(t *testing.T) {
	src := `{
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "greedy-fifo"},
		"adversary": {"name": "random", "params": {"d": 4}},
		"bound": {"rho": "1", "sigma": 4},
		"rounds": 200,
		"invariants": [{"name": "max-load", "params": {"bound": 0}}]
	}`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failed != 1 {
		t.Fatalf("max-load 0 must fail the cell, got %d failed", agg.Failed)
	}
	if err := agg.FirstErr(); !strings.Contains(err.Error(), "> bound 0") {
		t.Errorf("cell error %v is not the invariant's", err)
	}
}
