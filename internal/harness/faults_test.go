package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/core"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// faultSweep builds a two-protocol sweep over a drop and a link_flap
// entry, the shape the determinism tests shard across worker pools.
func faultSweep(workers int, faultAxis []FaultSpec) *Sweep {
	return &Sweep{
		Protocols: []ProtocolSpec{
			Protocol("pts", func() sim.Protocol { return core.NewPTS() }),
			Protocol("greedy", func() sim.Protocol { return baseline.NewGreedy(baseline.FIFO{}) }),
		},
		Topologies:  []TopologySpec{Path(12)},
		Bounds:      []adversary.Bound{{Rho: rat.New(1, 2), Sigma: 2}},
		Adversaries: []AdversarySpec{RandomAdversary(nil)},
		Seeds:       []int64{1, 2},
		Rounds:      []int{200},
		Faults:      faultAxis,
		Workers:     workers,
	}
}

func recordJSON(t *testing.T, rec CellRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func dropFault(p rat.Rat) FaultSpec {
	return FaultSpec{Name: fmt.Sprintf("drop(%v)", p), New: func(nw *network.Network, seed int64) (faults.Model, error) {
		m, err := faults.NewDrop(p)
		if err != nil {
			return nil, err
		}
		if err := m.Reset(nw, seed); err != nil {
			return nil, err
		}
		return m, nil
	}}
}

func flapFault(p rat.Rat, period, down int) FaultSpec {
	return FaultSpec{Name: "flap", New: func(nw *network.Network, seed int64) (faults.Model, error) {
		m, err := faults.NewLinkFlap(p, period, down)
		if err != nil {
			return nil, err
		}
		if err := m.Reset(nw, seed); err != nil {
			return nil, err
		}
		return m, nil
	}}
}

// TestFaultSweepDeterministicAcrossWorkers is the reproducibility gate of
// the fault subsystem: the same faulted sweep produces byte-identical
// records — and therefore the same results digest — at sweep-worker
// counts 1, 3, and 8.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	axis := []FaultSpec{
		dropFault(rat.New(1, 10)),
		flapFault(rat.New(1, 2), 16, 4),
	}
	digests := make(map[string][]int)
	for _, workers := range []int{1, 3, 8} {
		res, err := faultSweep(workers, axis).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Failed > 0 {
			t.Fatalf("workers=%d: %d cells failed: %v", workers, res.Failed, res.FirstErr())
		}
		digests[res.Digest()] = append(digests[res.Digest()], workers)
	}
	if len(digests) != 1 {
		t.Fatalf("worker counts disagree on the faulted digest: %v", digests)
	}
	// The drop cells actually dropped something (the axis is live).
	res, err := faultSweep(2, axis).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, rec := range res.Records() {
		if rec.Faults == "drop(1/10)" {
			dropped += rec.Dropped
		}
		if rec.Faults == "" {
			t.Fatalf("cell %q carries no fault entry in a fully-faulted sweep", rec.Cell)
		}
	}
	if dropped == 0 {
		t.Fatal("drop(1/10) cells dropped nothing over 200 rounds")
	}
}

// TestZeroFaultAxisMatchesNoAxis checks the paired-comparison contract:
// a drop entry at p=0 replays exactly the traffic of the same sweep with
// no fault axis, and every record agrees on every scalar — only the cell
// label (and thus the digest version) differs.
func TestZeroFaultAxisMatchesNoAxis(t *testing.T) {
	base, err := faultSweep(3, nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	zero, err := faultSweep(3, []FaultSpec{dropFault(rat.New(0, 1))}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseRecs, zeroRecs := base.Records(), zero.Records()
	if len(baseRecs) != len(zeroRecs) {
		t.Fatalf("grid sizes differ: %d vs %d", len(baseRecs), len(zeroRecs))
	}
	for i, b := range baseRecs {
		z := zeroRecs[i]
		// Strip the axis label; everything else must match field-for-field.
		if z.Faults != "drop(0)" {
			t.Fatalf("record %d: fault label %q, want drop(0)", i, z.Faults)
		}
		z.Faults, z.Cell = "", b.Cell
		bj, zj := recordJSON(t, b), recordJSON(t, z)
		if bj != zj {
			t.Errorf("record %d diverges under a p=0 drop model:\nbase: %s\nzero: %s", i, bj, zj)
		}
	}
}
