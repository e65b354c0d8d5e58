package store

import (
	"encoding/json"
	"os"

	"smallbuffers/internal/harness"
)

// Seal writes a sealed entry: lines, the canonical encodings of the
// complete record set of span (what AppendEncoded takes), go into the
// entry for scenarioDigest under root together with their results
// digest. Records the entry already holds (an earlier, interrupted Seal)
// are skipped. An entry that will not open (a format bump or a span
// clash) is stale by contract, so Seal wipes it and starts over. Sealing
// fails unless lines cover the whole span.
//
// Seal and OpenSealed are the durable result caches' whole protocol (the
// service's CacheDir and aqtbench -store), so every cache agrees on when
// an entry is servable and when it is evicted.
func Seal(root, scenarioDigest string, span harness.IndexRange, lines []json.RawMessage, resultsDigest string) error {
	st, err := Open(root, scenarioDigest, span, Options{})
	if err != nil {
		if err := Remove(root, scenarioDigest); err != nil {
			return err
		}
		if st, err = Open(root, scenarioDigest, span, Options{}); err != nil {
			return err
		}
	}
	defer st.Close()
	for _, line := range lines {
		index, faulted, err := harness.ProbeCanonical(line)
		if err == nil && !st.Has(index) {
			err = st.AppendEncoded(index, faulted, line)
		}
		if err != nil {
			return err
		}
	}
	if err := st.SetRecordsDigest(resultsDigest); err != nil {
		return err
	}
	return st.Close()
}

// OpenSealed opens the entry for scenarioDigest under root when it is
// sealed: complete, and its stored bytes re-derive the digest it was
// sealed with (RecordsDigest). Otherwise it returns nil. A missing entry
// is not created, and a partial one is left for a later Seal to finish;
// an entry that will not open or fails the re-derivation is corrupt and
// evicted, so the caller recomputes it. The caller closes a non-nil
// result; the error reports a failed eviction.
func OpenSealed(root, scenarioDigest string, span harness.IndexRange) (*Store, error) {
	if _, err := os.Stat(EntryDir(root, scenarioDigest)); err != nil {
		return nil, nil
	}
	st, err := Open(root, scenarioDigest, span, Options{})
	if err != nil {
		return nil, Remove(root, scenarioDigest)
	}
	if !st.Complete() || st.RecordsDigest() == "" {
		st.Close()
		return nil, nil
	}
	if d, err := st.Digest(); err != nil || d != st.RecordsDigest() {
		st.Close()
		return nil, Remove(root, scenarioDigest)
	}
	return st, nil
}
