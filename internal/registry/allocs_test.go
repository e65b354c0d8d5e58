package registry

import (
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// allocSetup is a loaded cell shape for the allocation gate: a topology
// and the random adversary's destination count on it.
type allocSetup struct {
	topology string
	params   map[string]any
	d        int
}

// allocSetups are tried for every protocol; each runs on those it
// attaches to. path(256) = 16² = 4⁴ also fits hpts, and the sink-only and
// binary cells fit the single-destination and tree protocols.
var allocSetups = []allocSetup{
	{"path", map[string]any{"n": 256}, 8},
	{"path", map[string]any{"n": 256}, 1},
	{"binary", map[string]any{"height": 7}, 1},
	{"binary", map[string]any{"height": 7}, 4},
}

// TestProtocolAllocs is the allocation gate. Every registered protocol,
// built with default params (and hpts at ℓ ∈ {1, 2, 4}) and run to a loaded
// steady state on a cell it attaches to, allocates nothing per Decide, at
// every round offset of a phase, on the view the engine hands it: it
// returns its decision scratch. A whole engine round allocates nothing
// either: the adversary and the engine reuse their slices too.
func TestProtocolAllocs(t *testing.T) {
	type row struct {
		name, protocol string
		params         map[string]any
	}
	var rows []row
	for _, name := range ProtocolNames() {
		rows = append(rows, row{name, name, nil})
	}
	for _, ell := range []int{1, 4} {
		rows = append(rows, row{fmt.Sprintf("hpts_ell=%d", ell), "hpts", map[string]any{"ell": ell}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			attached := 0
			for _, s := range allocSetups {
				eng, probe, ok := loadedEngine(t, r.protocol, r.params, s)
				if !ok {
					continue
				}
				attached++
				probe.measure = true
				for range 4 {
					if _, err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
				probe.measure = false
				for i, allocs := range probe.allocs {
					if allocs != 0 {
						t.Errorf("%s d=%d round offset %d: Decide makes %.0f allocations, want 0", s.topology, s.d, i, allocs)
					}
				}
				if probe.decided == 0 {
					t.Errorf("%s d=%d: no decisions in four loaded rounds", s.topology, s.d)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if _, err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s d=%d: Engine.Step makes %.0f allocations, want 0", s.topology, s.d, allocs)
				}
				t.Logf("%s d=%d: Decide %v, Engine.Step %.0f allocations", s.topology, s.d, probe.allocs, allocs)
			}
			if attached == 0 {
				t.Fatal("attaches to none of the gate's cells")
			}
		})
	}
}

// allocProbe wraps a protocol so that, while measure is set, every Decide
// also measures the protocol's allocations on the view the engine hands
// it: the configuration after injection and before forwarding. It measures
// before the Decide whose result it returns, since a result is valid only
// until the next Decide.
type allocProbe struct {
	sim.Protocol
	measure bool
	allocs  []float64 // per measured round
	decided int       // decisions over the measured rounds
}

// PhaseLength passes the wrapped protocol's phase length on to the engine.
func (p *allocProbe) PhaseLength() int {
	if pa, ok := p.Protocol.(sim.PhasedAcceptor); ok {
		return pa.PhaseLength()
	}
	return 1
}

func (p *allocProbe) Decide(v sim.View) ([]sim.Forward, error) {
	if p.measure {
		p.allocs = append(p.allocs, testing.AllocsPerRun(20, func() {
			if _, err := p.Protocol.Decide(v); err != nil {
				panic(err)
			}
		}))
	}
	d, err := p.Protocol.Decide(v)
	if p.measure {
		p.decided += len(d)
	}
	return d, err
}

// loadedEngine builds protocol on setup s under the random adversary
// (σ = 2, ρ = 1, or 1/ℓ for a phase length ℓ) and runs it 2,000
// rounds into a steady state. ok is false when the protocol does not
// attach to the cell.
func loadedEngine(t *testing.T, protocol string, params map[string]any, s allocSetup) (*sim.Engine, *allocProbe, bool) {
	t.Helper()
	pe, err := LookupProtocol(protocol)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pe.Params.Resolve(params)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := pe.Build(pp)
	if err != nil {
		t.Fatal(err)
	}
	te, err := LookupTopology(s.topology)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := te.Params.Resolve(s.params)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := te.Build(tp)
	if err != nil {
		t.Fatal(err)
	}
	rho := rat.One
	if pa, ok := proto.(sim.PhasedAcceptor); ok {
		rho = rat.New(1, int64(pa.PhaseLength()))
	}
	const warm = 2000
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rho, Sigma: 2}, SpreadDestinations(nw, s.d), 3)
	if err != nil {
		t.Fatal(err)
	}
	probe := &allocProbe{Protocol: proto}
	eng, err := sim.NewEngine(sim.NewSpec(nw, probe, adv, warm+200))
	if err != nil {
		return nil, nil, false // the protocol does not attach here
	}
	for range warm {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, probe, true
}

// TestAdversaryAllocs is the gate's adversary half. Every registered
// adversary, built with default params at ρ = 1/2, σ = 2 on path(64) (a
// self-hosting one on its own topology and horizon), drives greedy-fifo
// through the first half of its horizon; after that an engine round
// allocates nothing, the adversary's injections included.
func TestAdversaryAllocs(t *testing.T) {
	for _, name := range AdversaryNames() {
		t.Run(name, func(t *testing.T) {
			ae, err := LookupAdversary(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ae.Params.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}
			nw, rounds := network.MustPath(64), 400
			var adv adversary.Adversary
			if ae.SelfHosting() {
				prep, err := ae.Prepare(bound, p)
				if err != nil {
					t.Fatal(err)
				}
				nw, adv, rounds = prep.Net, prep.Adversary, prep.Rounds
			} else if adv, err = ae.Build(AdversaryContext{Net: nw, Bound: bound, Seed: 5, Rounds: rounds}, p); err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewEngine(sim.NewSpec(nw, baseline.NewGreedy(baseline.FIFO{}), adv, rounds))
			if err != nil {
				t.Fatal(err)
			}
			for range rounds / 2 {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			before := eng.Result().Injected
			allocs := testing.AllocsPerRun(rounds/4, func() {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if eng.Result().Injected == before {
				t.Fatal("no injections in the measured rounds")
			}
			if allocs != 0 {
				t.Errorf("Engine.Step makes %.0f allocations, want 0", allocs)
			}
		})
	}
}
