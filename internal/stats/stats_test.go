package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, "x").AddRow(2.5, "y")
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	out := tb.String()
	for _, want := range []string{"demo", "a", "b", "1", "2.5", "x", "y", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("p", "q")
	var sb strings.Builder
	if err := tb.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### demo", "| a | b |", "| --- | --- |", "| p | q |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableStringerValues(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(strings.NewReplacer()) // not a Stringer: falls back to %v
	tb.AddRow(testStringer{})
	if !strings.Contains(tb.String(), "custom") {
		t.Error("Stringer not used")
	}
}

type testStringer struct{}

func (testStringer) String() string { return "custom" }

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 2.8 {
		t.Errorf("Mean = %v, want 2.8", s.Mean)
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	s2 := Summary{}
	if got := s2.Percentile(50); got != 0 {
		t.Errorf("empty P50 = %v", got)
	}
	var s3 Summary
	s3.AddInt(7)
	if s3.Max != 7 {
		t.Errorf("AddInt: %v", s3.Max)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			s.Add(float64(v))
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Count == len(vals) &&
			s.Percentile(0) == s.Min && s.Percentile(100) == s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantiles(t *testing.T) {
	var s Summary
	for v := 1; v <= 100; v++ {
		s.AddInt(v)
	}
	got := s.Quantiles(50, 90, 99, 100)
	want := []float64{50, 90, 99, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Agreement with Percentile, point for point.
	for _, p := range []float64{0, 25, 50, 75, 99.9} {
		if q := s.Quantiles(p)[0]; q != s.Percentile(p) {
			t.Errorf("Quantiles(%g) = %g, Percentile = %g", p, q, s.Percentile(p))
		}
	}
	var empty Summary
	if got := empty.Quantiles(50, 99); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty Quantiles = %v", got)
	}
}

// TestHistogramGolden pins the exact rendering: fixed-width bars scaled
// to the maximum count, aligned labels and counts.
func TestHistogramGolden(t *testing.T) {
	var sb strings.Builder
	err := Histogram(&sb, "occupancy", []HistBar{
		{Label: "0", Count: 8},
		{Label: "1", Count: 4},
		{Label: "2–3", Count: 1},
		{Label: "4+", Count: 0},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"occupancy\n" +
		"0    ████████ 8\n" +
		"1    ████     4\n" +
		"2–3  █        1\n" +
		"4+            0\n"
	if sb.String() != want {
		t.Errorf("histogram rendering:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestHistogramHalfCellsAndEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Histogram(&sb, "", []HistBar{
		{Label: "a", Count: 3},
		{Label: "b", Count: 1},
	}, 3); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"a  ███ 3\n" +
		"b  █   1\n"
	if sb.String() != want {
		t.Errorf("got:\n%q\nwant:\n%q", sb.String(), want)
	}
	sb.Reset()
	if err := Histogram(&sb, "t", nil, 0); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "t\n" {
		t.Errorf("empty histogram rendered %q", sb.String())
	}
}

func TestCheckMark(t *testing.T) {
	if CheckMark(true) != "✓" || !strings.Contains(CheckMark(false), "VIOLATION") {
		t.Error("CheckMark wrong")
	}
}
