package smallbuffers_test

// Golden equivalence suite: every protocol runs fixed scenarios through the
// engine and the full execution — each round's applied moves and the
// post-round occupancy vector — is folded into an FNV-1a digest. The digests
// in testdata/golden_b1.json were captured from the engine *before* links
// became capacitated; the test replays the same scenarios at the default
// bandwidth B = 1 and requires bit-identical digests, proving that the
// generalized engine and protocols recover the paper's unit-capacity
// semantics round for round.
//
// Regenerate with: GOLDEN_UPDATE=1 go test -run TestGoldenB1 .

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	sb "smallbuffers"
)

// execDigest observes a run and folds every move and every post-round load
// vector into one 64-bit digest.
type execDigest struct {
	sb.NopObserver
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newExecDigest() *execDigest { return &execDigest{h: fnv.New64a()} }

func (d *execDigest) OnForward(round int, moves []sb.Move) {
	for _, m := range moves {
		fmt.Fprintf(d.h, "F|%d|%d|%d|%d|%t|", round, m.Pkt.ID, m.From, m.To, m.Delivered)
	}
}

func (d *execDigest) OnRoundEnd(round int, v sb.MetricView) {
	n := v.Net().Len()
	fmt.Fprintf(d.h, "R|%d|", round)
	for i := 0; i < n; i++ {
		fmt.Fprintf(d.h, "%d,", v.Load(sb.NodeID(i)))
	}
}

// goldenRecord is one scenario's captured outcome.
type goldenRecord struct {
	Digest    uint64 `json:"digest"`
	MaxLoad   int    `json:"max_load"`
	Injected  int    `json:"injected"`
	Delivered int    `json:"delivered"`
	MaxLat    int    `json:"max_latency"`
	TotalLat  int    `json:"total_latency"`
}

// scenario is one golden cell: a topology, protocol, and adversary factory.
type scenario struct {
	name   string
	rounds int
	build  func() (*sb.Network, sb.Protocol, sb.Adversary, error)
}

func pathScenario(name string, rounds int, proto func() sb.Protocol, adv func(nw *sb.Network) (sb.Adversary, error)) scenario {
	return scenario{name: name, rounds: rounds, build: func() (*sb.Network, sb.Protocol, sb.Adversary, error) {
		nw, err := sb.NewPath(48)
		if err != nil {
			return nil, nil, nil, err
		}
		a, err := adv(nw)
		if err != nil {
			return nil, nil, nil, err
		}
		return nw, proto(), a, nil
	}}
}

func goldenScenarios() []scenario {
	sinkDest := func(nw *sb.Network) (sb.Adversary, error) {
		return sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}, nil, 7)
	}
	multiDest := func(nw *sb.Network) (sb.Adversary, error) {
		n := nw.Len()
		dests := []sb.NodeID{sb.NodeID(n / 3), sb.NodeID(n / 2), sb.NodeID(n - 2), sb.NodeID(n - 1)}
		return sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}, dests, 11)
	}
	halfRate := func(nw *sb.Network) (sb.Adversary, error) {
		return sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}, nil, 13)
	}

	scenarios := []scenario{
		pathScenario("pts/path48/random-sink", 400, func() sb.Protocol { return sb.NewPTS() }, sinkDest),
		pathScenario("pts-drain/path48/random-sink", 400, func() sb.Protocol { return sb.NewPTS(sb.PTSWithDrain()) }, sinkDest),
		pathScenario("ppts/path48/random-multi", 400, func() sb.Protocol { return sb.NewPPTS() }, multiDest),
		pathScenario("ppts-drain/path48/random-multi", 400, func() sb.Protocol { return sb.NewPPTS(sb.PPTSWithDrain()) }, multiDest),
		pathScenario("downhill/path48/random-sink", 400, func() sb.Protocol { return sb.NewDownhill() }, sinkDest),
		pathScenario("oddeven/path48/random-half", 400, func() sb.Protocol { return sb.NewOddEvenDownhill() }, halfRate),
	}
	greedy := []struct {
		tag    string
		policy sb.GreedyPolicy
	}{
		{"fifo", sb.FIFO}, {"lifo", sb.LIFO}, {"lis", sb.LIS},
		{"sis", sb.SIS}, {"ntg", sb.NTG}, {"ftg", sb.FTG},
	}
	for _, g := range greedy {
		policy := g.policy
		scenarios = append(scenarios, pathScenario(
			"greedy-"+g.tag+"/path48/random-multi", 400,
			func() sb.Protocol { return sb.NewGreedy(policy) }, multiDest))
	}
	// HPTS needs n = m^ℓ and ρ ≤ 1/ℓ.
	scenarios = append(scenarios, scenario{name: "hpts2/path64/random-half", rounds: 600,
		build: func() (*sb.Network, sb.Protocol, sb.Adversary, error) {
			nw, err := sb.NewPath(64)
			if err != nil {
				return nil, nil, nil, err
			}
			adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 2}, nil, 17)
			if err != nil {
				return nil, nil, nil, err
			}
			return nw, sb.NewHPTS(2), adv, nil
		}})
	// Tree protocols on non-path shapes.
	scenarios = append(scenarios, scenario{name: "tree-pts/spider4x5/random-root", rounds: 400,
		build: func() (*sb.Network, sb.Protocol, sb.Adversary, error) {
			nw, err := sb.SpiderTree(4, 5)
			if err != nil {
				return nil, nil, nil, err
			}
			adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}, nil, 19)
			if err != nil {
				return nil, nil, nil, err
			}
			return nw, sb.NewTreePTS(), adv, nil
		}})
	scenarios = append(scenarios, scenario{name: "tree-ppts/caterpillar8x2/random-spine", rounds: 400,
		build: func() (*sb.Network, sb.Protocol, sb.Adversary, error) {
			nw, err := sb.CaterpillarTree(8, 2)
			if err != nil {
				return nil, nil, nil, err
			}
			dests := []sb.NodeID{3, 5, 7}
			adv, err := sb.NewRandomAdversary(nw, sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}, dests, 23)
			if err != nil {
				return nil, nil, nil, err
			}
			return nw, sb.NewTreePPTS(), adv, nil
		}})
	return scenarios
}

const goldenPath = "testdata/golden_b1.json"

func TestGoldenB1Equivalence(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	got := make(map[string]goldenRecord)
	for _, sc := range goldenScenarios() {
		nw, proto, adv, err := sc.build()
		if err != nil {
			t.Fatalf("%s: build: %v", sc.name, err)
		}
		dig := newExecDigest()
		res, err := sb.RunContext(t.Context(),
			sb.NewSpec(nw, proto, adv, sc.rounds, sb.WithObservers(dig), sb.WithVerifyAdversary()))
		if err != nil {
			t.Fatalf("%s: run: %v", sc.name, err)
		}
		got[sc.name] = goldenRecord{
			Digest:    dig.h.Sum64(),
			MaxLoad:   res.MaxLoad,
			Injected:  res.Injected,
			Delivered: res.Delivered,
			MaxLat:    res.MaxLatency,
			TotalLat:  res.TotalLatency,
		}
	}

	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		// encoding/json sorts map keys, so the file is stable as written.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("scenario count mismatch: golden has %d, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario missing from run", name)
			continue
		}
		if g != w {
			t.Errorf("%s: diverged from pre-bandwidth engine at B=1:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
