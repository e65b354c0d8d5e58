package adversary_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/scenario"
)

// craftedSchedulesDigest pins every injection the crafted builders
// (PTSBurst, PPTSBurst, TreeBurst, GreedyKiller) schedule for the cells of
// the pinned corpus and experiment files: the SHA-256 of one
// "file cell round src dst" line per injection, in round order.
const craftedSchedulesDigest = "3ffa55e489b745407b9aabd761071e9892286a4d8ca068d448ce391391cff0f2"

// TestCraftedSchedulesPinned builds the adversary of every cell of
// testdata/scenarios and testdata/experiments and hashes each crafted
// schedule round by round, so a change to how a schedule is stored or
// built cannot move one injection without failing here.
func TestCraftedSchedulesPinned(t *testing.T) {
	var files []string
	for _, dir := range []string{"scenarios", "experiments"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	h := sha256.New()
	replays, injections := 0, 0
	for _, f := range files {
		sc, err := scenario.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := sw.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			_, _, adv, err := sw.Build(c)
			if err != nil {
				t.Fatalf("%s cell %d: %v", f, c.Index, err)
			}
			r, ok := adv.(*adversary.Replay)
			if !ok {
				continue
			}
			replays++
			for round := 0; round <= r.LastRound(); round++ {
				for _, in := range r.Inject(round) {
					fmt.Fprintf(h, "%s %d %d %d %d\n", filepath.Base(f), c.Index, round, in.Src, in.Dst)
					injections++
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d crafted schedules, %d injections", replays, injections)
	if got != craftedSchedulesDigest {
		t.Errorf("crafted schedules digest %s, pinned %s", got, craftedSchedulesDigest)
	}
}
