package store

import (
	"encoding/json"
	"os"
	"testing"

	"smallbuffers/internal/harness"
)

func TestSealedEntryProtocol(t *testing.T) {
	root := t.TempDir()
	span := harness.IndexRange{Lo: 0, Hi: 6}
	recs := allRecs(6)
	want := harness.RecordsDigest(recs)
	lines := make([]json.RawMessage, len(recs))
	for i, rec := range recs {
		var err error
		if lines[i], err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustSealed := func(wantSealed bool) {
		t.Helper()
		st, err := OpenSealed(root, testDigest, span)
		if err != nil {
			t.Fatal(err)
		}
		if (st != nil) != wantSealed {
			t.Fatalf("OpenSealed = %v, want sealed %v", st, wantSealed)
		}
		if st != nil {
			defer st.Close()
			if st.RecordsDigest() != want {
				t.Fatalf("sealed digest %q, want %q", st.RecordsDigest(), want)
			}
		}
	}

	// A miss creates nothing.
	mustSealed(false)
	if _, err := os.Stat(EntryDir(root, testDigest)); !os.IsNotExist(err) {
		t.Fatalf("probing a missing entry created it: %v", err)
	}

	// A partial record set does not seal, and the partial entry is kept
	// for a later Seal to finish.
	if err := Seal(root, testDigest, span, lines[:4], want); err == nil {
		t.Fatal("sealed an incomplete record set")
	}
	if err := Seal(root, testDigest, span, []json.RawMessage{json.RawMessage("not a record")}, want); err == nil {
		t.Fatal("sealed a line that is not a record")
	}
	mustSealed(false)
	if err := Seal(root, testDigest, span, lines, want); err != nil {
		t.Fatal(err)
	}
	mustSealed(true)

	// A recorded digest the records do not re-derive is evicted.
	if err := Seal(root, testDigest, span, lines, "sha256:bogus"); err != nil {
		t.Fatal(err)
	}
	mustSealed(false)
	if _, err := os.Stat(EntryDir(root, testDigest)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not evicted: %v", err)
	}

	// An entry written for another span will not open: Seal wipes it.
	if err := Seal(root, testDigest, harness.IndexRange{Lo: 0, Hi: 3}, lines[:3], harness.RecordsDigest(recs[:3])); err != nil {
		t.Fatal(err)
	}
	if err := Seal(root, testDigest, span, lines, want); err != nil {
		t.Fatal(err)
	}
	mustSealed(true)
}
