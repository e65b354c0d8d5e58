package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smallbuffers/internal/harness"
)

// fuzzRec is cell i's record, carrying a fault entry when faulted.
func fuzzRec(i int, faulted bool) harness.CellRecord {
	r := rec(i)
	if faulted {
		r.Faults, r.Dropped = "drop(1/20)", i%3+1
	}
	return r
}

// FuzzStoreRecover packs records into an entry, damages it, and unpacks
// it again. The records go in through Append and AppendEncoded, with and
// without fault entries (encoded and faulted pick per record by bit).
// The manifest commits the first synced of them; the writer then dies
// with the rest flushed to the segment but not committed. Then one byte
// of the segment or of the manifest is overwritten or flipped, or the
// file is cut short, at the given offset. Reopening the entry must not
// panic. When it opens, Scan serves an intact subset of what was
// appended, in index order; Digest is harness.RecordsDigest of that
// subset; and appending the uncovered rest gives the digest of the whole
// set.
func FuzzStoreRecover(f *testing.F) {
	for _, seed := range []struct {
		n, synced        uint8
		encoded, faulted uint32
		manifest         bool
		op, b            uint8
		at               uint16
	}{
		{n: 6, synced: 7},
		{n: 9, synced: 4, encoded: 0x5a, faulted: 0x0f, op: 0, at: 200},
		{n: 9, synced: 10, encoded: 0xff, faulted: 0x10, op: 1, b: 0x04, at: 321},
		{n: 12, synced: 2, encoded: 0x0f0, faulted: 0xf0f, op: 2, b: '}', at: 77},
		{n: 4, synced: 5, encoded: 0x3, manifest: true, op: 0, at: 40},
		{n: 5, synced: 6, faulted: 0x1f, manifest: true, op: 1, b: 0x01, at: 120},
		{n: 5, synced: 3, encoded: 0x1f, manifest: true, op: 2, b: '-', at: 180},
		{n: 7, synced: 0, encoded: 0x2a, faulted: 0x55, manifest: true, op: 2, b: '9', at: 64},
		// A digit flipped in a record the manifest does not cover.
		{n: 5, synced: 2, op: 1, b: 0, at: 916},
		// A negative committed length for the segment.
		{n: 3, synced: 4, manifest: true, op: 2, b: '-', at: 217},
	} {
		f.Add(seed.n, seed.synced, seed.encoded, seed.faulted, seed.manifest, seed.op, seed.b, seed.at)
	}
	f.Fuzz(func(t *testing.T, n, synced uint8, encoded, faulted uint32, manifest bool, op, b uint8, at uint16) {
		span := harness.IndexRange{Lo: 0, Hi: int(n%32) + 1}
		want := make([]harness.CellRecord, span.Hi)
		root := t.TempDir()
		st := mustOpen(t, root, span, Options{SyncEvery: 1 << 20})
		for i := range want {
			if i == int(synced) {
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			want[i] = fuzzRec(i, faulted>>i&1 == 1)
			if err := appendOne(st, want[i], encoded>>i&1 == 1); err != nil {
				t.Fatal(err)
			}
		}
		if int(synced) >= len(want) {
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		// The writer dies: its buffered bytes reach the segment, the
		// manifest keeps what the last sync committed.
		if err := st.activeW.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, file := range st.files {
			file.Close()
		}

		name := filepath.Join(EntryDir(root, testDigest), manifestName)
		if !manifest {
			name = segFiles(t, root)[0]
		}
		data, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			return // nothing was synced: there is no manifest to damage
		}
		if err != nil {
			t.Fatal(err)
		}
		switch pos := int(at) % len(data); op % 3 {
		case 0:
			data = data[:pos]
		case 1:
			data[pos] ^= b | 1
		default:
			data[pos] = b
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err = Open(root, testDigest, span, Options{})
		if err != nil {
			return // a manifest that now names another span or format refuses to open
		}
		defer st.Close()
		var got []harness.CellRecord
		if err := st.Scan(func(r harness.CellRecord) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		for k, r := range got {
			if r.Index < 0 || r.Index >= len(want) || k > 0 && r.Index <= got[k-1].Index {
				t.Fatalf("Scan served index %d after %v", r.Index, got[:k])
			}
			if !reflect.DeepEqual(r, want[r.Index]) {
				t.Fatalf("Scan served %+v for cell %d, appended %+v", r, r.Index, want[r.Index])
			}
		}
		if len(got) != st.Count() {
			t.Fatalf("Scan served %d records of the %d covered", len(got), st.Count())
		}
		if d, err := st.Digest(); err != nil || d != harness.RecordsDigest(got) {
			t.Fatalf("Digest = %s, %v; RecordsDigest of the scanned records is %s", d, err, harness.RecordsDigest(got))
		}
		for _, rng := range st.Uncovered() {
			for i := rng.Lo; i < rng.Hi; i++ {
				if err := appendOne(st, want[i], encoded>>i&1 == 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if d, err := st.Digest(); err != nil || d != harness.RecordsDigest(want) {
			t.Fatalf("after filling the remainder, Digest = %s, %v; want %s", d, err, harness.RecordsDigest(want))
		}
	})
}

// appendOne appends r through AppendEncoded when encoded, else Append.
func appendOne(st *Store, r harness.CellRecord, encoded bool) error {
	if !encoded {
		return st.Append(r)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return st.AppendEncoded(r.Index, r.Faults != "", line)
}
