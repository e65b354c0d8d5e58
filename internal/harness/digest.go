package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// RecordsDigester computes RecordsDigest incrementally: records are fed
// one at a time, in strictly increasing index order, and the digest is
// available at any point without the record set ever being materialized
// in memory. It is the streaming counterpart of RecordsDigest — the two
// are byte-identical over the same records (RecordsDigest is implemented
// on top of it) — and is what lets the store and the fleet coordinator
// digest arbitrarily large result sets in O(1) space.
//
// The version gate (v2 for loss-free record sets, v3 once any record
// carries a fault entry — see RecordsVersion) cannot be decided until the
// last record has been seen, so the digester maintains both version
// states in parallel over the identical record stream and picks the
// right one at Sum time.
type RecordsDigester struct {
	v2, v3  hash.Hash
	count   int
	last    int
	faulted bool
}

// NewRecordsDigester returns an empty digester.
func NewRecordsDigester() *RecordsDigester {
	d := &RecordsDigester{v2: sha256.New(), v3: sha256.New()}
	hashWrite(d.v2, []byte("v2\n"))
	hashWrite(d.v3, fmt.Appendf(nil, "v%d\n", RecordsVersion))
	return d
}

// Add feeds one record. Records must arrive in strictly increasing index
// order (the canonical digest order); a duplicate or out-of-order index
// is an error and leaves the digester unchanged.
func (d *RecordsDigester) Add(rec CellRecord) error {
	var err error
	withCanonical(rec, func(line []byte) { err = d.AddEncoded(rec.Index, rec.Faults != "", line) })
	return err
}

// AddEncoded feeds one record by its canonical encoding (see
// AppendCanonical; no trailing newline).
// Callers that already hold the wire bytes — the store reading records
// back off disk — avoid a decode/re-encode round trip this way.
func (d *RecordsDigester) AddEncoded(index int, faulted bool, line []byte) error {
	if d.count > 0 && index <= d.last {
		return fmt.Errorf("harness: digest record index %d after %d (records must be strictly increasing)", index, d.last)
	}
	d.count++
	d.last = index
	if faulted {
		d.faulted = true
	}
	hashWrite(d.v2, line)
	hashWrite(d.v2, newline)
	hashWrite(d.v3, line)
	hashWrite(d.v3, newline)
	return nil
}

// newline ends every hashed record; a literal would escape, and allocate.
var newline = []byte{'\n'}

// Count returns the number of records fed so far.
func (d *RecordsDigester) Count() int { return d.count }

// Sum returns the digest of the records fed so far, in the same
// "sha256:<hex>" form as RecordsDigest. It does not consume the
// digester: more records may be added and Sum taken again.
func (d *RecordsDigester) Sum() string {
	h := d.v2
	if d.faulted {
		h = d.v3
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
