package harness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/scenario"
)

// handRecords cover what the pinned files do not: an error record, a
// faulted one, every string json.Marshal escapes, negative integers and
// empty slices (which the encoding omits).
func handRecords() []harness.CellRecord {
	hist := &metrics.HistRecord{Count: 3, Sum: -7, Min: -5, Max: 2, Exact: []int{1, 0, 2}, Log2: []int{}}
	return []harness.CellRecord{
		{},
		{Index: 7, Cell: "n=8", Err: "harness: cell failed: boom"},
		{Index: 2, Cell: "ρ=1/2 σ=2", MaxLoad: 3, Faults: "drop(p=1/10)", Dropped: 4},
		{Index: 1, Cell: `<a href="x">&amp;</a>`, Faults: "\\", Err: "quote \" tab \t nl \n nul \x00 del \x7f"},
		{Index: 3, Cell: "sep \u2028 par \u2029 bad \xff\xfe utf8 \xe2\x80", Err: "\U0001F600 é"},
		{Index: -1, MaxLoad: -2, MaxLoadNode: math.MinInt32, MaxLoadRound: math.MaxInt32, Dropped: -9},
		{Index: 5, Cell: "m", Metrics: []metrics.Summary{}},
		{Index: 6, Cell: "m", Metrics: []metrics.Summary{
			{Name: "x", Kind: "scalar", Scalars: map[string]int{}, Series: []metrics.SeriesRecord{}, Anchored: []string{}},
			{Name: "load<hist>", Kind: "hist", Hist: hist, Scalars: map[string]int{"b": 2, "a": -1, "<": 0, "é": 3},
				Anchor: "b", Anchored: []string{"a", "b\n"}},
			{Name: "s", Kind: "series", Series: []metrics.SeriesRecord{
				{Key: "goodput", Agg: "sum", Stride: 2, Rounds: 9, Values: []int{1, -2, 3}, Tail: []int{}},
				{Key: "drop", Agg: "max", Stride: 1, Rounds: 0, Tail: []int{4}},
			}},
			{Name: "h", Kind: "hist", Hist: &metrics.HistRecord{}},
		}},
	}
}

// corpusRecords runs every pinned scenario file in process and returns
// its records.
func corpusRecords(tb testing.TB) []harness.CellRecord {
	tb.Helper()
	var recs []harness.CellRecord
	for _, dir := range []string{"scenarios", "experiments"} {
		paths, err := filepath.Glob(filepath.Join("../../testdata", dir, "*.json"))
		if err != nil || len(paths) == 0 {
			tb.Fatalf("no pinned files under testdata/%s (%v)", dir, err)
		}
		for _, path := range paths {
			body, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			sc, err := scenario.Parse(body)
			if err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
			agg, err := sc.Run(context.Background())
			if err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
			recs = append(recs, agg.Records()...)
		}
	}
	return recs
}

// FuzzRecordCodec holds the codec to encoding/json, its reference: for a
// record json.Unmarshal reads from the input, AppendCanonical must give
// json.Marshal's bytes; an input DecodeCanonical accepts must encode back
// to itself, be what json.Unmarshal reads and probe to its index and
// fault flag. An integer past int is rejected, since json.Unmarshal
// rejects it too. Seeds: every record of the 30 pinned files, the hand
// records, and lines the decoder must refuse.
func FuzzRecordCodec(f *testing.F) {
	var lines [][]byte
	for _, rec := range append(corpusRecords(f), handRecords()...) {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, line)
	}
	ok := string(lines[0])
	for _, bad := range []string{
		ok[:len(ok)-1],
		strings.Replace(ok, `{"index":0,`, `{"index": 0,`, 1),
		strings.Replace(ok, `{"index":0,"cell":`, `{"cell":`, 1) + `,"index":0`,
		strings.Replace(ok, `{"index":0,`, `{"index":0,"index":0,`, 1),
		`{"index":9223372036854775808,"cell":""}`,
		`{"index":2147483648,"cell":"","max_load":0,"max_load_node":0,"max_load_round":0,"max_physical_load":0,"injected":0,"delivered":0,"residual":0,"max_latency":0,"total_latency":0}`,
		`{"index":-0,"cell":"a\ud800","max_load":01}`,
		`{"index":1,"cell":"x","max_load":0,"max_load_node":0,"max_load_round":0,"max_physical_load":0,"injected":0,"delivered":0,"residual":0,"max_latency":0,"total_latency":0,"faults":"","metrics":[]}`,
	} {
		lines = append(lines, []byte(bad))
	}
	for _, line := range lines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var ref harness.CellRecord
		refErr := json.Unmarshal(line, &ref)
		if refErr == nil {
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if got := harness.AppendCanonical(nil, ref); !bytes.Equal(got, want) {
				t.Fatalf("AppendCanonical(%+v)\n got %s\nwant %s", ref, got, want)
			}
		}
		rec, err := harness.DecodeCanonical(line)
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("DecodeCanonical accepted %q, json.Unmarshal refused it: %v", line, refErr)
		}
		if got := harness.AppendCanonical(nil, rec); !bytes.Equal(got, line) {
			t.Fatalf("DecodeCanonical accepted %q, which encodes back to %q", line, got)
		}
		if !reflect.DeepEqual(rec, ref) {
			t.Fatalf("DecodeCanonical(%q) = %+v, json.Unmarshal reads %+v", line, rec, ref)
		}
		if index, faulted, err := harness.ProbeCanonical(line); err != nil || index != rec.Index || faulted != (rec.Faults != "") {
			t.Fatalf("ProbeCanonical(%q) = %d, %v, %v; want %d, %v", line, index, faulted, err, rec.Index, rec.Faults != "")
		}
	})
}

// TestRecordCodecRejects pins the refusals FuzzRecordCodec's seeds rely
// on, and the range of int on this platform: a line is read only as the
// bytes json.Marshal writes.
func TestRecordCodecRejects(t *testing.T) {
	line := func(index string) string {
		return `{"index":` + index + `,"cell":"c","max_load":0,"max_load_node":0,"max_load_round":0,"max_physical_load":0,"injected":0,"delivered":0,"residual":0,"max_latency":0,"total_latency":0}`
	}
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{line(strconv.Itoa(math.MaxInt)), true},
		{line(strconv.Itoa(math.MinInt)), true},
		{line(strconv.FormatUint(uint64(math.MaxInt)+1, 10)), false},
		{line("-" + strconv.FormatUint(uint64(math.MaxInt)+2, 10)), false},
		{line("99999999999999999999999"), false},
		{line("-0"), false},
		{line("01"), false},
		{line("1.0"), false},
		{line("1e2"), false},
		{strings.Replace(line("1"), `"c"`, `"\u0063"`, 1), false},
		{strings.Replace(line("1"), `"c"`, `"\u003c"`, 1), true},
		{strings.Replace(line("1"), `"c"`, `"<"`, 1), false},
		{strings.Replace(line("1"), `"c"`, "\"\xff\"", 1), false},
		{strings.Replace(line("1"), `"c"`, "\"\ufffd\"", 1), true},
		{strings.Replace(line("1"), `"c"`, `"\ufffd"`, 1), false},
		{strings.Replace(line("1"), `"c"`, "\"\u2028\"", 1), false},
		{strings.Replace(line("1"), `"c"`, `"\u2028"`, 1), true},
		{strings.Replace(line("1"), `"c"`, "\"\x7f\"", 1), true},
		{strings.Replace(line("1"), `}`, `,"dropped":0}`, 1), false},
		{strings.Replace(line("1"), `}`, `,"error":""}`, 1), false},
		{strings.Replace(line("1"), `}`, `,"metrics":[{"name":"a","kind":"b","scalars":{"y":1,"x":2}}]}`, 1), false},
		{strings.Replace(line("1"), `}`, `,"metrics":[{"name":"a","kind":"b","scalars":{"x":2,"x":3}}]}`, 1), false},
		{strings.Replace(line("1"), `}`, `,"metrics":[{"name":"a","kind":"b","scalars":{"x":2,"y":1}}]}`, 1), true},
		{line("1") + " ", false},
	} {
		_, err := harness.DecodeCanonical([]byte(tc.line))
		if (err == nil) != tc.ok {
			t.Errorf("DecodeCanonical(%q): err = %v, want accepted = %v", tc.line, err, tc.ok)
		}
		var ref harness.CellRecord
		if tc.ok && json.Unmarshal([]byte(tc.line), &ref) != nil {
			t.Errorf("json.Unmarshal refuses %q, which the codec accepts", tc.line)
		}
	}
}

// TestRecordCodecBoundsHostileLists: a cell frame from a daemon is
// untrusted, and a list of empty elements, one byte each, must not make
// the decoder allocate far more than the line's length before it refuses
// the line. Each list is sized to the elements its bytes could hold in
// canonical form, not to its commas.
func TestRecordCodecBoundsHostileLists(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run without -race")
	}
	commas := strings.Repeat(",", 1<<20)
	prefix := `{"index":0,"cell":"c","max_load":0,"max_load_node":0,"max_load_round":0,"max_physical_load":0,"injected":0,"delivered":0,"residual":0,"max_latency":0,"total_latency":0,"metrics":[`
	for _, tail := range []string{
		commas + "]}",
		`{"name":"a","kind":"b","series":[` + commas + "]}]}",
		`{"name":"a","kind":"b","hist":{"count":0,"sum":0,"min":0,"max":0,"exact":[` + commas + "]}}]}",
		`{"name":"a","kind":"b","anchored":[` + commas + "]}]}",
		`{"name":"a","kind":"b","scalars":{` + commas + "}}]}",
	} {
		line := []byte(prefix + tail)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := harness.DecodeCanonical(line)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("accepted %.120q…", line)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 8*uint64(len(line)) {
			t.Errorf("%.120q…: decoding %d bytes allocates %d B, want ≤ 8 per byte", line, len(line), b)
		}
	}
}

// fleetRecord is a cell of the fleet-resume workload's grid: 634 bytes,
// with a latency histogram and the max_load summary.
func fleetRecord(t *testing.T) harness.CellRecord {
	t.Helper()
	sc, err := scenario.Parse([]byte(`{"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "greedy-fifo"}, "adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2}, "rounds": 200, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return agg.Records()[0]
}

// TestRecordCodecAllocs gates the codec's allocations on a fleet-resume
// record: encoding it into a warm buffer allocates nothing, and decoding
// it allocates no more than the record's own 26 objects. Those are its
// label and metrics slice; the latency summary's name, kind, scalars map
// (two objects) with six keys, histogram and exact list; and the
// max_load summary's name, kind, scalars map with four keys, anchor, and
// anchored list with two names. json.Unmarshal makes 54 allocations for
// the same record. Probing its index and fault flag, as store recovery
// does for every record, allocates nothing.
func TestRecordCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run without -race")
	}
	rec := fleetRecord(t)
	line := harness.AppendCanonical(nil, rec)
	if want, err := json.Marshal(rec); err != nil || !bytes.Equal(line, want) {
		t.Fatalf("AppendCanonical gives %s, json.Marshal %s", line, want)
	}
	buf := make([]byte, 0, 2*len(line))
	if n := testing.AllocsPerRun(100, func() { buf = harness.AppendCanonical(buf[:0], rec) }); n != 0 {
		t.Errorf("encoding a %d-byte record into a warm buffer allocates %v times, want 0", len(line), n)
	}
	const own = 26
	var got harness.CellRecord
	n := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = harness.DecodeCanonical(line); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a %d-byte record: %v allocations to decode", len(line), n)
	if n > own {
		t.Errorf("decoding a %d-byte record allocates %v times, want ≤ %d", len(line), n, own)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decoded %+v, want %+v", got, rec)
	}
	if n := testing.AllocsPerRun(100, func() {
		if index, _, err := harness.ProbeCanonical(line); err != nil || index != rec.Index {
			t.Fatalf("ProbeCanonical = %d, %v; want %d", index, err, rec.Index)
		}
	}); n != 0 {
		t.Errorf("probing a %d-byte record allocates %v times, want 0", len(line), n)
	}
}
