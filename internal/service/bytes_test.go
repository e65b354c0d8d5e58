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
// discards the bodies. With each scenario compiled once and each metric's
// series sized to its cell's rounds and handed over at the end of the run,
// daemon and client together allocate 1.17 MB per op (measured with
// go1.24.0 on linux/amd64). With each component's params resolved again
// for every use and every series sized to its cap and copied, 1.38 MB;
// with a schedule grown as a map of slices and copied whole, and every
// report re-encoding its cells, 2.04 MB.
func TestServedMissBytes(t *testing.T) {
	const limit = 1_210_000
	got := passBytes(t, Config{Workers: 2, SweepWorkers: 1, CacheCells: -1})
	t.Logf("%d B per op (limit %d)", got, limit)
	if got > limit {
		t.Errorf("one corpus pass of cache misses allocates %d B, want ≤ %d", got, limit)
	}
}

// TestServedHitBytes is the byte gate on a daemon's warm hits: one op
// POSTs each testdata/scenarios file once more, synchronously, to a
// daemon that has answered every one of them, and the client discards
// the bodies. Each body is the one that created its run, so the daemon
// answers it without parsing: daemon and client together allocate 123 KB
// per op (measured with go1.24.0 on linux/amd64). When every hit parsed
// and digested its body, 305 KB.
func TestServedHitBytes(t *testing.T) {
	const limit = 127_000
	got := passBytes(t, Config{Workers: 2, SweepWorkers: 1})
	t.Logf("%d B per op (limit %d)", got, limit)
	if got > limit {
		t.Errorf("one corpus pass of cache hits allocates %d B, want ≤ %d", got, limit)
	}
}

// passBytes returns the bytes one corpus pass allocates on a daemon with
// cfg: each testdata/scenarios file POSTed once, synchronously, the
// bodies discarded. It is the least of 8 passes at one P, after a first
// pass that fills the daemon's cache when cfg keeps one.
func passBytes(t *testing.T, cfg Config) uint64 {
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
	_, ts := newTestServer(t, cfg)
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
	return best
}
