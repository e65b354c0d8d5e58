package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smallbuffers/internal/harness"
)

const testDigest = "sha256:0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func rec(i int) harness.CellRecord {
	return harness.CellRecord{
		Index:     i,
		Cell:      fmt.Sprintf("cell-%d", i),
		MaxLoad:   i%7 + 1,
		Injected:  10 * i,
		Delivered: 9 * i,
	}
}

func allRecs(n int) []harness.CellRecord {
	out := make([]harness.CellRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rec(i))
	}
	return out
}

func mustOpen(t *testing.T, root string, span harness.IndexRange, opts Options) *Store {
	t.Helper()
	s, err := Open(root, testDigest, span, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func appendAll(t *testing.T, s *Store, recs []harness.CellRecord) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append(%d): %v", r.Index, err)
		}
	}
}

// fillRemainder resumes the entry and appends every still-uncovered cell,
// returning the final digest — the shape of every recovery test: whatever
// the damage, appending the uncovered remainder must reproduce the clean
// digest.
func fillRemainder(t *testing.T, root string, span harness.IndexRange) string {
	t.Helper()
	s := mustOpen(t, root, span, Options{})
	defer s.Close()
	for _, rng := range s.Uncovered() {
		for i := rng.Lo; i < rng.Hi; i++ {
			if err := s.Append(rec(i)); err != nil {
				t.Fatalf("resume Append(%d): %v", i, err)
			}
		}
	}
	if !s.Complete() {
		t.Fatalf("entry incomplete after filling remainder: %d of %d", s.Count(), span.Count())
	}
	d, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return d
}

func segFiles(t *testing.T, root string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(EntryDir(root, testDigest), "seg-*.ndj"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestStoreRoundTrip(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 10}
	s := mustOpen(t, root, span, Options{SyncEvery: 3})
	if got := s.Count(); got != 0 {
		t.Fatalf("fresh entry covers %d cells", got)
	}
	// Out-of-order arrival, as the fleet merge produces.
	order := []int{3, 0, 7, 1, 9, 4, 2, 8, 5, 6}
	for _, i := range order {
		if err := s.Append(rec(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if !s.Complete() {
		t.Fatalf("entry incomplete: %d of %d", s.Count(), span.Count())
	}

	// Scan streams in index order regardless of arrival order.
	var seen []int
	if err := s.Scan(func(r harness.CellRecord) error {
		seen = append(seen, r.Index)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("Scan order broken at %d: got index %d", i, idx)
		}
	}

	// The stored digest is byte-identical to the in-memory one.
	want := harness.RecordsDigest(allRecs(10))
	got, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if got != want {
		t.Fatalf("digest diverged: store %s, memory %s", got, want)
	}
	if err := s.SetRecordsDigest(got); err != nil {
		t.Fatalf("SetRecordsDigest: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: complete, digest preserved, Opened reflects the baseline.
	s2 := mustOpen(t, root, span, Options{})
	defer s2.Close()
	if !s2.Complete() || s2.Opened() != 10 {
		t.Fatalf("reopen: complete=%v opened=%d", s2.Complete(), s2.Opened())
	}
	if s2.RecordsDigest() != want {
		t.Fatalf("reopen digest: got %s, want %s", s2.RecordsDigest(), want)
	}
	got2, err := s2.Digest()
	if err != nil || got2 != want {
		t.Fatalf("reopen re-derived digest: %s, %v", got2, err)
	}
}

// TestStoreFrameBytes holds the segment and manifest bytes to the
// reference framing, fmt.Appendf("%d %s %s\n", …) over json.Marshal's
// encoding: AppendEncoded writes a frame straight into the segment's
// writer and hash, and the manifest takes the active segment's digest at
// each sync, so every synced manifest must describe its file's prefix.
func TestStoreFrameBytes(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 8}
	s := mustOpen(t, root, span, Options{SyncEvery: 3})
	recs := allRecs(8)
	recs[2].Cell, recs[2].Faults, recs[2].Dropped = "ρ=1/2 <σ> \"q\"", "drop(p=1/10)", 3
	recs[5].Err = "boom\n"
	var want []byte
	for k, i := range []int{3, 0, 7, 1, 2, 4, 6, 5} {
		line, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(line)
		want = fmt.Appendf(want, "%d %s %s\n", len(line), hex.EncodeToString(sum[:8]), line)
		if err := s.Append(recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if k == 4 { // after the sync at the third append
			checkManifest(t, root, 3)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, root)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("segment bytes:\n%s\nwant:\n%s", got, want)
	}
	checkManifest(t, root, 8)
}

// checkManifest requires the entry's manifest to describe the first
// records frames of its one segment: their bytes and their SHA-256.
func checkManifest(t *testing.T, root string, records int) {
	t.Helper()
	man, err := loadManifest(EntryDir(root, testDigest))
	if err != nil || man == nil || len(man.Segments) != 1 {
		t.Fatalf("manifest %+v (%v), want one segment", man, err)
	}
	data, err := os.ReadFile(segFiles(t, root)[0])
	if err != nil {
		t.Fatal(err)
	}
	meta := man.Segments[0]
	if meta.Bytes > int64(len(data)) || bytes.Count(data[:meta.Bytes], newline) != records || meta.Records != records {
		t.Fatalf("manifest commits %d records in %d bytes of %d, want %d records", meta.Records, meta.Bytes, len(data), records)
	}
	if sum := sha256.Sum256(data[:meta.Bytes]); meta.Digest != "sha256:"+hex.EncodeToString(sum[:]) {
		t.Errorf("manifest digest %s, its %d-byte prefix hashes to %x", meta.Digest, meta.Bytes, sum)
	}
}

func TestStoreAppendRejectsDuplicateAndOutOfSpan(t *testing.T) {
	s := mustOpen(t, t.TempDir(), harness.IndexRange{Lo: 2, Hi: 5}, Options{})
	defer s.Close()
	if err := s.Append(rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(3)); err == nil {
		t.Fatal("duplicate append accepted")
	}
	if err := s.Append(rec(7)); err == nil {
		t.Fatal("out-of-span append accepted")
	}
	if err := s.Append(rec(1)); err == nil {
		t.Fatal("below-span append accepted")
	}
}

func TestStoreCoverageRanges(t *testing.T) {
	s := mustOpen(t, t.TempDir(), harness.IndexRange{Lo: 0, Hi: 10}, Options{})
	defer s.Close()
	for _, i := range []int{0, 1, 4, 7, 8} {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantCov := []harness.IndexRange{{Lo: 0, Hi: 2}, {Lo: 4, Hi: 5}, {Lo: 7, Hi: 9}}
	wantUnc := []harness.IndexRange{{Lo: 2, Hi: 4}, {Lo: 5, Hi: 7}, {Lo: 9, Hi: 10}}
	if got := s.Covered(); fmt.Sprint(got) != fmt.Sprint(wantCov) {
		t.Fatalf("Covered: %v, want %v", got, wantCov)
	}
	if got := s.Uncovered(); fmt.Sprint(got) != fmt.Sprint(wantUnc) {
		t.Fatalf("Uncovered: %v, want %v", got, wantUnc)
	}
	if got := s.UncoveredIn(harness.IndexRange{Lo: 3, Hi: 8}); fmt.Sprint(got) != fmt.Sprint([]harness.IndexRange{{Lo: 3, Hi: 4}, {Lo: 5, Hi: 7}}) {
		t.Fatalf("UncoveredIn: %v", got)
	}
	if !s.Has(4) || s.Has(5) {
		t.Fatalf("Has: 4=%v 5=%v", s.Has(4), s.Has(5))
	}
}

// TestStoreTruncatedSegment kills the entry mid-write: the final segment
// loses its tail mid-record. Recovery must keep the valid prefix, leave
// the torn cell uncovered, and a resumed fill must reproduce the clean
// digest exactly.
func TestStoreTruncatedSegment(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 8}
	cleanDigest := harness.RecordsDigest(allRecs(8))

	s := mustOpen(t, root, span, Options{SyncEvery: 1})
	appendAll(t, s, allRecs(8)[:6])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs := segFiles(t, root)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 5 bytes.
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, root, span, Options{})
	if got, want := s2.Count(), 5; got != want {
		t.Fatalf("after torn tail: %d covered, want %d", got, want)
	}
	if s2.Has(5) {
		t.Fatal("torn record still served")
	}
	s2.Close()

	if got := fillRemainder(t, root, span); got != cleanDigest {
		t.Fatalf("resumed digest %s, clean %s", got, cleanDigest)
	}
}

// TestStoreBitFlippedRecord flips one payload byte in the middle of a
// synced segment. The per-record checksum must catch it; the flipped
// record and the segment tail after it fall out of coverage, and the
// resumed fill reproduces the clean digest.
func TestStoreBitFlippedRecord(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 8}
	cleanDigest := harness.RecordsDigest(allRecs(8))

	s := mustOpen(t, root, span, Options{SyncEvery: 1})
	appendAll(t, s, allRecs(8))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs := segFiles(t, root)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 3's payload ("cell-3" is unique).
	at := strings.Index(string(data), "cell-3")
	if at < 0 {
		t.Fatal("record 3 not found in segment")
	}
	data[at+5] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The manifest's committed-prefix digest would also catch this and
	// discard the whole segment; remove the manifest to force the
	// per-record path — both roads end uncovered, never served.
	if err := os.Remove(filepath.Join(EntryDir(root, testDigest), manifestName)); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, root, span, Options{})
	if s2.Has(3) {
		t.Fatal("bit-flipped record still served")
	}
	if got := s2.Count(); got != 3 {
		t.Fatalf("after flip: %d covered, want 3 (scan stops at first damage)", got)
	}
	s2.Close()

	if got := fillRemainder(t, root, span); got != cleanDigest {
		t.Fatalf("resumed digest %s, clean %s", got, cleanDigest)
	}
}

// TestStoreStaleManifest rewrites a synced segment's committed prefix so
// it no longer matches the manifest digest — content changed under the
// manifest, which appends never do. The whole segment must be discarded
// (even though every line in it is self-consistent), and the resumed
// fill reproduces the clean digest.
func TestStoreStaleManifest(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 8}
	cleanDigest := harness.RecordsDigest(allRecs(8))

	s := mustOpen(t, root, span, Options{SyncEvery: 1})
	appendAll(t, s, allRecs(8)[:4])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs := segFiles(t, root)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Swap records 0 and 1: every line still passes its own checksum and
	// the file keeps its committed length, but the prefix digest no
	// longer matches the manifest.
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("want ≥4 lines, got %d", len(lines))
	}
	lines[0], lines[1] = lines[1], lines[0]
	if err := os.WriteFile(segs[0], []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, root, span, Options{})
	if got := s2.Count(); got != 0 {
		t.Fatalf("mutated segment still serving %d records", got)
	}
	if got := segFiles(t, root); len(got) != 0 {
		t.Fatalf("mutated segment not discarded: %v", got)
	}
	s2.Close()

	if got := fillRemainder(t, root, span); got != cleanDigest {
		t.Fatalf("resumed digest %s, clean %s", got, cleanDigest)
	}
}

// TestStoreForeignIndexSkipped plants a valid record whose index lies
// outside the entry's span; recovery must not serve it.
func TestStoreForeignIndexSkipped(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, harness.IndexRange{Lo: 0, Hi: 20}, Options{SyncEvery: 1})
	appendAll(t, s, []harness.CellRecord{rec(0), rec(15), rec(2)})
	s.Close()

	// Reopen under a narrower span: record 15 is now foreign.
	s2, err := Open(root, testDigest, harness.IndexRange{Lo: 0, Hi: 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if _, err := Open(root, testDigest, harness.IndexRange{Lo: 0, Hi: 4}, Options{}); err == nil {
		t.Fatal("span mismatch with manifest accepted")
	}
	// Drop the manifest so the narrower open succeeds and recovery itself
	// must reject the foreign index.
	if err := os.Remove(filepath.Join(EntryDir(root, testDigest), manifestName)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(root, testDigest, harness.IndexRange{Lo: 0, Hi: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Count(); got != 2 {
		t.Fatalf("narrow reopen covers %d cells, want 2", got)
	}
	if s3.Has(2) != true || s3.Has(3) {
		t.Fatalf("coverage wrong: 2=%v 3=%v", s3.Has(2), s3.Has(3))
	}
}

// TestStoreMultiSession verifies that each writing session appends to a
// fresh segment and coverage accumulates across sessions.
func TestStoreMultiSession(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 9}
	for round := 0; round < 3; round++ {
		s := mustOpen(t, root, span, Options{})
		if got := s.Opened(); got != round*3 {
			t.Fatalf("round %d opened %d, want %d", round, got, round*3)
		}
		appendAll(t, s, allRecs(9)[round*3:round*3+3])
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(segFiles(t, root)); got != 3 {
		t.Fatalf("want 3 segments, got %d", got)
	}
	s := mustOpen(t, root, span, Options{})
	defer s.Close()
	want := harness.RecordsDigest(allRecs(9))
	got, err := s.Digest()
	if err != nil || got != want {
		t.Fatalf("multi-session digest %s (%v), want %s", got, err, want)
	}
}

func TestStoreDigestGuard(t *testing.T) {
	for _, bad := range []string{"", "../escape", "sha256:ABC", "a/b", strings.Repeat("a", 300)} {
		if _, err := Open(t.TempDir(), bad, harness.IndexRange{Lo: 0, Hi: 1}, Options{}); err == nil {
			t.Fatalf("digest %q accepted", bad)
		}
	}
}

func TestStoreRemove(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, harness.IndexRange{Lo: 0, Hi: 2}, Options{})
	appendAll(t, s, allRecs(2))
	s.Close()
	if err := Remove(root, testDigest); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(EntryDir(root, testDigest)); !os.IsNotExist(err) {
		t.Fatalf("entry survives Remove: %v", err)
	}
	if err := Remove(root, "../escape"); err == nil {
		t.Fatal("Remove accepted a malformed digest")
	}
}
