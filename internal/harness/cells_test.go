package harness_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/scenario"
)

// nestedCells is the reference expansion: the grid's nested loops in the
// row-major order Sweep.Cells documents.
func nestedCells(s *harness.Sweep) []harness.Cell {
	seeds, bandwidths, faults := s.Seeds, s.Bandwidths, []string{""}
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if len(bandwidths) == 0 {
		bandwidths = []int{0}
	}
	if len(s.Faults) > 0 {
		faults = nil
		for _, f := range s.Faults {
			faults = append(faults, f.Name)
		}
	}
	var cells []harness.Cell
	for _, topo := range s.Topologies {
		for _, proto := range s.Protocols {
			for _, adv := range s.Adversaries {
				for _, bound := range s.Bounds {
					for _, bw := range bandwidths {
						for _, fault := range faults {
							for _, seed := range seeds {
								for _, r := range s.Rounds {
									cells = append(cells, harness.Cell{Index: len(cells), Protocol: proto.Name,
										Topology: topo.Name, Adversary: adv.Name, Bound: bound, Bandwidth: bw,
										Faults: fault, Seed: seed, Rounds: r})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// TestCellsToRunMatchesNestedLoops builds each shard's cells from their
// global indices: for every pinned file's sweep, the whole grid and
// random shards equal the same slice of the nested-loop reference.
func TestCellsToRunMatchesNestedLoops(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*/*.json")
	if err != nil || len(paths) < 30 {
		t.Fatalf("%d pinned files (%v), want 30", len(paths), err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Parse(body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sw, err := sc.Sweep()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want := nestedCells(sw)
		if got, err := sw.Cells(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Cells differ from the nested loops (%v)", path, err)
		}
		for range 8 {
			sw.ShardOffset = rng.Intn(len(want))
			sw.ShardCount = 1 + rng.Intn(len(want)-sw.ShardOffset)
			got, err := sw.CellsToRun()
			if err != nil || !reflect.DeepEqual(got, want[sw.ShardOffset:sw.ShardOffset+sw.ShardCount]) {
				t.Fatalf("%s: shard [%d,+%d) differs from the nested loops (%v)", path, sw.ShardOffset, sw.ShardCount, err)
			}
		}
	}
}

// TestOneCellShardOfLargeGrid: a daemon billed for one cell of a
// 2^20-cell grid (1,024 seeds × 1,024 rounds entries) builds that cell
// alone, not the grid's 120 MB of cells.
func TestOneCellShardOfLargeGrid(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run without -race")
	}
	sw := &harness.Sweep{
		Protocols:   []harness.ProtocolSpec{{Name: "p"}},
		Topologies:  []harness.TopologySpec{{Name: "t"}},
		Adversaries: []harness.AdversarySpec{{Name: "a"}},
		Bounds:      []adversary.Bound{{Rho: rat.New(1, 2), Sigma: 1}},
		Seeds:       make([]int64, 1024),
		Rounds:      make([]int, 1024),
		ShardOffset: 777_777,
		ShardCount:  1,
	}
	for i := range 1024 {
		sw.Seeds[i], sw.Rounds[i] = int64(i+1), i+1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cells, err := sw.CellsToRun()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := harness.Cell{Index: 777_777, Protocol: "p", Topology: "t", Adversary: "a", Bound: sw.Bounds[0],
		Seed: int64(777_777/1024 + 1), Rounds: 777_777%1024 + 1}
	if len(cells) != 1 || !reflect.DeepEqual(cells[0], want) {
		t.Fatalf("CellsToRun = %+v, want [%+v]", cells, want)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4096 {
		t.Errorf("a one-cell shard of a 2^20-cell grid allocates %d B, want ≤ 4096", b)
	}
}
