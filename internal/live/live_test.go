package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
)

// fakeClock is a manually advanced Clock: Sleep advances it instantly,
// so rate and ETA math is exact under test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func rec(name string, scalars map[string]int) harness.CellRecord {
	return harness.CellRecord{Metrics: []metrics.Summary{
		{Name: name, Kind: metrics.KindScalar, Scalars: scalars},
	}}
}

func TestAccumulatorProgressAndRates(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	a := NewAccumulator("r1-test", 10, 3, clk)
	if v := a.View(); v.Status != "queued" || v.ElapsedMillis != 0 || v.CellsInFlight != 0 {
		t.Fatalf("queued view %+v", v)
	}
	a.Start()
	clk.Advance(2 * time.Second)
	for i := 0; i < 3; i++ {
		a.Observe(rec("max_load", map[string]int{"max_load": i + 1}))
	}
	a.Observe(harness.CellRecord{Err: "boom"})
	v := a.View()
	if v.CellsDone != 4 || v.CellsFailed != 1 || v.CellsTotal != 10 {
		t.Fatalf("counts %+v", v)
	}
	if v.CellsInFlight != 3 { // min(workers=3, remaining=6)
		t.Fatalf("in flight = %d", v.CellsInFlight)
	}
	if v.ElapsedMillis != 2000 {
		t.Fatalf("elapsed = %d", v.ElapsedMillis)
	}
	// 4 cells in 2 s → 2 cells/s → 2000 in ×1000 fixed point.
	if v.CellsPerSecMillis != 2000 {
		t.Fatalf("cells/sec = %d", v.CellsPerSecMillis)
	}
	// 6 remaining at 2 cells/s → 3 s.
	if v.ETAMillis != 3000 {
		t.Fatalf("eta = %d", v.ETAMillis)
	}
	if v.Progress() != 400 {
		t.Fatalf("progress = %d", v.Progress())
	}
	// Merged scalars fold element-wise max.
	s, ok := v.MetricByName("max_load")
	if !ok || s.Scalars["max_load"] != 3 {
		t.Fatalf("merged max_load %+v", s)
	}
	// Finish freezes elapsed and zeroes in-flight/ETA.
	a.Finish("done")
	clk.Advance(time.Hour)
	v = a.View()
	if v.Status != "done" || v.ElapsedMillis != 2000 || v.CellsInFlight != 0 || v.ETAMillis != 0 {
		t.Fatalf("finished view %+v", v)
	}
}

func TestAccumulatorMergeConflictCounted(t *testing.T) {
	a := NewAccumulator("r", 2, 0, &fakeClock{})
	a.Start()
	a.Observe(rec("m", map[string]int{"x": 1}))
	// Same name, different kind: the merge must drop it and count it,
	// never fail the publish path.
	a.Observe(harness.CellRecord{Metrics: []metrics.Summary{
		{Name: "m", Kind: metrics.KindHist, Scalars: map[string]int{"x": 2}},
	}})
	v := a.View()
	if v.DroppedSummaries != 1 {
		t.Fatalf("dropped = %d", v.DroppedSummaries)
	}
	if s, _ := v.MetricByName("m"); s.Scalars["x"] != 1 {
		t.Fatalf("surviving summary %+v", s)
	}
}

// TestViewRaceFree drives Observe and View concurrently under -race: a
// reader polling snapshots must never block or corrupt the publisher.
func TestViewRaceFree(t *testing.T) {
	a := NewAccumulator("r", 1000, 8, &fakeClock{})
	a.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.View()
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		a.Observe(rec("max_load", map[string]int{"max_load": i}))
	}
	close(stop)
	wg.Wait()
	if v := a.View(); v.CellsDone != 1000 {
		t.Fatalf("done = %d", v.CellsDone)
	}
}
