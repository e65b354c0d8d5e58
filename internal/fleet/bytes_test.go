package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// recordGrid is the fleet-resume benchmark workload's grid shape: three
// small topologies × four protocols × four seeds, 48 cells of 200
// rounds. Its one verb takes the seeds axis, so each op can run a grid
// no daemon has cached.
const recordGrid = `{"name": "fleet-grid",
	"topologies": [{"name": "path", "params": {"n": 16}}, {"name": "binary", "params": {"height": 3}},
		{"name": "spider", "params": {"arms": 3, "len": 5}}],
	"protocols": [{"name": "greedy-fifo"}, {"name": "greedy-lis"}, {"name": "greedy-ntg"}, {"name": "tree-ppts"}],
	"adversary": {"name": "random", "params": {"d": 2}},
	"bound": {"rho": "1/2", "sigma": 2}, "rounds": 200, "seeds": %s}`

// TestFleetRecordBytes is the byte gate on the record path: one op of
// the fleet-resume workload — recordGrid run fresh on two in-process
// daemons into a new store entry, then resumed into another entry
// seeded with the first half of those records, each entry's digest
// re-derived from disk — allocates, daemons and coordinator together, no
// more than with each record encoded once on its way from the daemon's
// engine to the store and folded once as it commits, and random sources
// reseeded rather than allocated. Every op draws seeds no earlier op
// used, so each shard is a daemon cache miss that builds, runs and
// publishes its sweep. With every record encoded and decoded by the
// record codec (harness.AppendCanonical, harness.DecodeCanonical), store
// frames written in place, each shard building only its own cells and
// each topology's memo key made once, the op allocates 1,250,592 B
// (measured with go1.24.0 on linux/amd64); through encoding/json it
// allocated 1,687,568 B, and with daemons that kept each run's decoded
// records beside their encodings and encoded a finished run's records
// again for its stream, 1.82–1.84 MB.
func TestFleetRecordBytes(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops items at random under the race detector, and
		// its instrumentation changes what allocates.
		t.Skip("allocation gate: run without -race")
	}
	var eps []string
	for range 2 {
		eps = append(eps, newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1}).addr())
	}
	cfg := Config{Endpoints: eps, InFlightPerDaemon: 1}
	run := func(sc *scenario.Scenario, root, from string) string {
		dig, err := sc.Digest()
		if err != nil {
			t.Fatal(err)
		}
		total, err := sc.GridSize()
		if err != nil {
			t.Fatal(err)
		}
		span := harness.IndexRange{Lo: 0, Hi: total}
		st, err := store.Open(root, dig, span, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if from != "" {
			src, err := store.Open(from, dig, span, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := src.Scan(func(rec harness.CellRecord) error {
				if rec.Index >= total/2 {
					return nil
				}
				return st.Append(rec)
			}); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Store = st
		res, err := Run(context.Background(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := st.Digest(); err != nil || d != res.Summary.ResultsDigest {
			t.Fatalf("the store re-derives %s (%v), the fleet reported %s", d, err, res.Summary.ResultsDigest)
		}
		return res.Summary.ResultsDigest
	}
	seed := 0
	op := func() {
		seed += 4
		sc, err := scenario.Parse(fmt.Appendf(nil, recordGrid, fmt.Sprintf("[%d, %d, %d, %d]", seed, seed+1, seed+2, seed+3)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := t.TempDir()
		if a, b := run(sc, fresh, ""), run(sc, t.TempDir(), fresh); a != b {
			t.Fatalf("resumed digest %s, fresh %s", b, a)
		}
	}

	// One P keeps the runtime's own allocations out of the count; the
	// least of several ops drops whatever is left.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	const limit = 1_300_000
	t.Logf("%d B per op (limit %d)", best, limit)
	if best > limit {
		t.Errorf("one fleet-resume op allocates %d B, want ≤ %d", best, limit)
	}
}
