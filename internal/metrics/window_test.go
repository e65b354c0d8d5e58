package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestWindowRingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capN := range []int{1, 3, 8, 64} {
		for _, n := range []int{0, 1, 5, 64, 200} {
			w := newWindow(capN)
			full := make([]int, n)
			var evictions []int
			for i := range full {
				full[i] = rng.Intn(50)
				if old, ev := w.push(full[i]); ev {
					evictions = append(evictions, old)
				}
			}
			want := full
			if len(want) > capN {
				want = want[len(want)-capN:]
			}
			got := w.values()
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("cap=%d n=%d: values=%v want %v", capN, n, got, want)
			}
			wantSum, wantMax := 0, 0
			for _, v := range want {
				wantSum += v
				if v > wantMax {
					wantMax = v
				}
			}
			if w.sum != wantSum || w.max() != wantMax {
				t.Fatalf("cap=%d n=%d: sum/max=%d/%d want %d/%d", capN, n, w.sum, w.max(), wantSum, wantMax)
			}
			wantEv := full[:max(0, n-capN)]
			if !reflect.DeepEqual(evictions, wantEv) && !(len(evictions) == 0 && len(wantEv) == 0) {
				t.Fatalf("cap=%d n=%d: evictions=%v want %v", capN, n, evictions, wantEv)
			}
			// quantile matches nearest-rank on the sorted window.
			if len(want) > 0 {
				sorted := append([]int(nil), want...)
				sort.Ints(sorted)
				for _, p := range []int{1, 50, 90, 99, 100} {
					rank := (p*len(sorted) + 50) / 100
					if rank < 1 {
						rank = 1
					}
					if rank > len(sorted) {
						rank = len(sorted)
					}
					if got := w.quantile(p); got != sorted[rank-1] {
						t.Fatalf("cap=%d n=%d p%d: got %d want %d", capN, n, p, got, sorted[rank-1])
					}
				}
			}
		}
	}
}

// endRound drives the collector's per-round finalization directly: the
// View argument is unused by OnRoundEnd.
func windowLoadRounds(c *WindowLoadCollector, maxima []int) {
	for _, m := range maxima {
		c.roundMax = m
		c.OnRoundEnd(0, nil)
	}
}

func TestWindowLoadExactWindowScalars(t *testing.T) {
	c := NewWindowLoad(4, 500)
	windowLoadRounds(c, []int{9, 1, 2, 3, 4, 5})
	s := c.Summarize()
	// Window holds the last 4 rounds: 2,3,4,5.
	want := map[string]int{
		"rounds":        6,
		"window":        4,
		"window_rounds": 4,
		"window_max":    5,
		// mean = (2+3+4+5)·1000/4
		"window_mean_millis": 3500,
		"window_p99":         5,
		// evictions: 9 (decayed once by the next eviction), then 1:
		// max(9000·500/1000, 1·1000) = 4500.
		"decayed_max_millis": 4500,
	}
	for k, v := range want {
		if s.Scalars[k] != v {
			t.Errorf("%s = %d, want %d (scalars %v)", k, s.Scalars[k], v, s.Scalars)
		}
	}
	if s.Kind != KindSeries || len(s.Series) != 1 {
		t.Fatalf("kind/series = %s/%d", s.Kind, len(s.Series))
	}
	rec := s.Series[0]
	if rec.Key != "window_max" || rec.Stride != 1 || rec.Rounds != 6 ||
		!reflect.DeepEqual(rec.Tail, []int{2, 3, 4, 5}) {
		t.Fatalf("series record %+v", rec)
	}
}

// TestWindowLoadSummarizeRepeatable pins the live-view requirement:
// Summarize is a pure snapshot, callable any number of times mid-run
// without perturbing subsequent rounds or the final record.
func TestWindowLoadSummarizeRepeatable(t *testing.T) {
	a, b := NewWindowLoad(8, 900), NewWindowLoad(8, 900)
	maxima := []int{5, 0, 7, 3, 3, 9, 1, 2, 2, 4, 6, 0}
	for i, m := range maxima {
		a.roundMax, b.roundMax = m, m
		a.OnRoundEnd(0, nil)
		b.OnRoundEnd(0, nil)
		if i%2 == 0 {
			s1, s2 := a.Summarize(), a.Summarize()
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("round %d: repeated Summarize differs: %v vs %v", i, s1, s2)
			}
		}
	}
	if !reflect.DeepEqual(a.Summarize(), b.Summarize()) {
		t.Fatal("mid-run Summarize calls perturbed the final summary")
	}
}

func TestWindowLoadDecayMonotone(t *testing.T) {
	c := NewWindowLoad(2, 990)
	windowLoadRounds(c, []int{100, 0, 0})
	first := c.Summarize().Scalars["decayed_max_millis"]
	if first != 100_000 {
		t.Fatalf("first eviction: decayed = %d, want 100000", first)
	}
	windowLoadRounds(c, []int{0, 0, 0, 0})
	later := c.Summarize().Scalars["decayed_max_millis"]
	if later >= first || later <= 0 {
		t.Fatalf("decayed tail %d not strictly decaying from %d", later, first)
	}
}

func TestGoodputWindowScalars(t *testing.T) {
	c := NewGoodputWindow(2)
	inj := func(n int) []Injection { return make([]Injection, n) }
	// Round 0: 3 injected, 1 delivered, 1 dropped.
	c.OnInject(0, inj(3))
	c.OnForward(0, []Move{{Delivered: true}, {Dropped: true}, {}})
	c.OnRoundEnd(0, nil)
	// Round 1: 2 injected, 2 delivered.
	c.OnInject(1, inj(2))
	c.OnForward(1, []Move{{Delivered: true}, {Delivered: true}})
	c.OnRoundEnd(1, nil)
	// Round 2: 1 injected, 1 dropped — round 0 ages out of the window.
	c.OnInject(2, inj(1))
	c.OnForward(2, []Move{{Dropped: true}})
	c.OnRoundEnd(2, nil)
	s := c.Summarize()
	want := map[string]int{
		"rounds": 3, "window": 2, "window_rounds": 2,
		"injected": 6, "delivered": 3, "dropped": 2,
		"window_injected": 3, "window_delivered": 2, "window_dropped": 1,
		"goodput_window_permille": 2000 / 3,
		"drop_window_permille":    1000 / 3,
	}
	for k, v := range want {
		if s.Scalars[k] != v {
			t.Errorf("%s = %d, want %d", k, s.Scalars[k], v)
		}
	}
	if len(s.Series) != 2 ||
		!reflect.DeepEqual(s.Series[0].Tail, []int{2, 1}) ||
		!reflect.DeepEqual(s.Series[1].Tail, []int{2, 0}) {
		t.Fatalf("series %+v", s.Series)
	}
}

// TestWindowSummariesMerge pins that the windowed summaries participate
// in cross-run merges like any collector: scalars fold element-wise max
// and the merged record stays integer-only.
func TestWindowSummariesMerge(t *testing.T) {
	a := NewWindowLoad(4, 990)
	windowLoadRounds(a, []int{1, 2, 3})
	b := NewWindowLoad(4, 990)
	windowLoadRounds(b, []int{7, 0, 0})
	m := foldPair(t, a.Summarize(), b.Summarize())
	if m.Scalars["window_max"] != 7 || m.Scalars["window_mean_millis"] != 2333 {
		t.Fatalf("merged scalars %v", m.Scalars)
	}
	if len(m.Series) != 0 {
		t.Fatalf("merged summary kept series %v (series are per-run)", m.Series)
	}
}
