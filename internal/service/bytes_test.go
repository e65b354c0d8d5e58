package service

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestServedMissBytes is the byte gate on a daemon's miss path: one op
// POSTs each testdata/scenarios file once, synchronously, to a daemon
// whose cache is off, so every request parses, builds its sweep, runs
// it, publishes its records and writes its report, and the client
// discards the bodies. With crafted adversaries replaying a flat,
// presized schedule and each record encoded once, for its frame, digest
// and report alike, daemon and client together allocate 1.38 MB per op
// (measured with go1.24.0 on linux/amd64). With a schedule grown as a
// map of slices and copied whole, and every report re-encoding its
// cells, the op allocated 2.04 MB.
func TestServedMissBytes(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation changes what allocates.
		t.Skip("allocation gate: run without -race")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(paths) != 13 {
		t.Fatalf("corpus: %d files (%v), want 13", len(paths), err)
	}
	bodies := make([][]byte, len(paths))
	for i, p := range paths {
		if bodies[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 1, CacheCells: -1})
	client := ts.Client()
	op := func() {
		for i, body := range bodies {
			resp, err := client.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d (%v)", paths[i], resp.StatusCode, err)
			}
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
	const limit = 1_430_000
	t.Logf("%d B per op (limit %d)", best, limit)
	if best > limit {
		t.Errorf("one corpus pass of cache misses allocates %d B, want ≤ %d", best, limit)
	}
}
