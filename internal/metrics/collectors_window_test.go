package metrics

import (
	"reflect"
	"testing"

	"smallbuffers/internal/packet"
)

// deliver emits one delivered move with the given latency at round r.
func deliver(c Collector, r, lat int) {
	c.OnForward(r, []Move{{Delivered: true, Pkt: packet.Packet{Inject: r - lat}}})
}

func TestLatencyWindowedScalars(t *testing.T) {
	c := NewLatencyWindowed(2, 500)
	// Round 0: latencies 5, 3. Round 1: latency 10. Round 2: 1, 1.
	deliver(c, 0, 5)
	deliver(c, 0, 3)
	c.OnRoundEnd(0, nil)
	deliver(c, 1, 10)
	c.OnRoundEnd(1, nil)
	deliver(c, 2, 1)
	deliver(c, 2, 1)
	c.OnRoundEnd(2, nil)

	s := c.Summarize()
	want := map[string]int{
		// The whole-run histogram is untouched by the window.
		"count": 5, "sum": 20, "max": 10,
		// Window covers rounds 1..2: 3 deliveries, latencies 10,1,1.
		"window": 2, "window_rounds": 2,
		"window_count": 3, "window_sum": 12, "window_max": 10,
		"window_mean_millis": 4000,
		// Round 0 aged out with per-round max 5: max(0·500/1000, 5000).
		"decayed_max_millis": 5000,
	}
	for k, v := range want {
		if s.Scalars[k] != v {
			t.Errorf("%s = %d, want %d (scalars %v)", k, s.Scalars[k], v, s.Scalars)
		}
	}
	if s.Kind != KindHist || s.Hist == nil || s.Hist.Count != 5 {
		t.Fatalf("windowed latency changed the hist payload: %+v", s)
	}
}

// TestLatencyWindowOffIdentical pins the compatibility contract: window=0
// is byte-identical to the unwindowed collector, so every pinned corpus
// digest that selects latency without params survives the new schema.
func TestLatencyWindowOffIdentical(t *testing.T) {
	off, plain := NewLatencyWindowed(0, 990), NewLatency()
	for r, lat := range []int{4, 0, 7, 2} {
		deliver(off, r, lat)
		deliver(plain, r, lat)
		off.OnRoundEnd(r, nil)
		plain.OnRoundEnd(r, nil)
	}
	so, sp := off.Summarize(), plain.Summarize()
	if !reflect.DeepEqual(so, sp) {
		t.Fatalf("window=0 summary differs:\n%+v\n%+v", so, sp)
	}
	if _, ok := so.Scalars["window"]; ok {
		t.Fatal("window=0 still emitted window scalars")
	}
}

func TestLinkUtilWindowedScalars(t *testing.T) {
	c := NewLinkUtilSeriesWindowed(16, 8, 2, 1000, 3)
	forwards := func(r, n int) {
		c.OnForward(r, make([]Move, n))
		c.OnRoundEnd(r, nil)
	}
	forwards(0, 4)
	forwards(1, 1)
	forwards(2, 3)
	s := c.Summarize()
	want := map[string]int{
		"window": 2, "window_rounds": 2,
		"window_forwards": 4, "window_max": 3,
		"window_mean_millis": 2000,
		// Round 0's 4 forwards aged out, decay 1000 keeps it whole.
		"decayed_max_millis": 4000,
	}
	for k, v := range want {
		if s.Scalars[k] != v {
			t.Errorf("%s = %d, want %d (scalars %v)", k, s.Scalars[k], v, s.Scalars)
		}
	}
	if rec, ok := s.SeriesByKey("forwards"); !ok || rec.Rounds != 3 {
		t.Fatalf("windowed link_util changed the series payload: %+v", s.Series)
	}
}

func TestLinkUtilWindowOffIdentical(t *testing.T) {
	off, plain := NewLinkUtilSeriesWindowed(16, 8, 0, 990, 3), NewLinkUtilSeries(16, 8, 3)
	for r, n := range []int{3, 0, 5} {
		off.OnForward(r, make([]Move, n))
		plain.OnForward(r, make([]Move, n))
		off.OnRoundEnd(r, nil)
		plain.OnRoundEnd(r, nil)
	}
	so, sp := off.Summarize(), plain.Summarize()
	if !reflect.DeepEqual(so, sp) {
		t.Fatalf("window=0 summary differs:\n%+v\n%+v", so, sp)
	}
	if _, ok := so.Scalars["window"]; ok {
		t.Fatal("window=0 still emitted window scalars")
	}
}
