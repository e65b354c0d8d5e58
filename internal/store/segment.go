package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"smallbuffers/internal/harness"
)

// FormatVersion tags the on-disk layout. The compatibility contract: a
// store only opens entries whose manifest carries the version it was
// built with — there is no cross-version migration, because everything
// in an entry is derivable (re-running the scenario reproduces it
// byte-for-byte), so "wipe and recompute" is always a correct upgrade.
// Bump it whenever the segment framing, the manifest schema, or the
// entry layout changes shape.
const FormatVersion = 1

// manifestName is the per-entry manifest file; segments sit beside it.
const manifestName = "manifest.json"

// maxRecordBytes bounds a single record line. Records are engine output,
// not user input, but the length prefix is read off disk before
// allocation — a corrupt prefix must not provoke a giant allocation.
const maxRecordBytes = 1 << 28

// segmentMeta is one segment's manifest entry. Bytes and Digest describe
// the committed prefix of the file at the last sync: a crash can leave
// the file longer than Bytes (records appended after the sync — scanned
// and kept on open) or shorter (torn write — truncated to the valid
// prefix on open), and a Digest mismatch over the committed prefix means
// the segment's content changed after it was written, which no append
// ever does, so the whole segment is discarded.
type segmentMeta struct {
	File    string `json:"file"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	Digest  string `json:"digest"`
}

// manifest is the entry's metadata file, written atomically
// (temp-and-rename) so a crash leaves either the previous or the next
// manifest, never a torn one. All fields are integers and strings — the
// store obeys the same nofloat discipline as the wire records it holds.
type manifest struct {
	Format   int    `json:"format"`
	Scenario string `json:"scenario"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	// Segments lists the entry's segment files in recovery order.
	Segments []segmentMeta `json:"segments,omitempty"`
	// RecordsDigest is the harness.RecordsDigest of the complete record
	// set, recorded once the span is fully covered. Readers re-derive the
	// digest from the records themselves and treat a mismatch as
	// corruption (evict, never serve).
	RecordsDigest string `json:"records_digest,omitempty"`
}

// loadManifest reads the entry manifest; a missing file returns (nil,
// nil) and an unparseable one (nil, err) — callers recover the segments
// either way, the manifest only adds cross-checks.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	return &m, nil
}

// saveManifest writes the manifest atomically.
func saveManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// frameHead appends to b the "<len> <sum> " that opens a record's segment
// frame, "<len> <sum> <json>\n", where sum is the first 16 hex characters
// of sha256(json). Every record is self-validating — a bit flip anywhere
// in the line breaks the length, the checksum, or the checksum match — so
// recovery can always find the longest valid prefix of a segment without
// trusting anything outside the line itself.
func frameHead(b, line []byte) []byte {
	sum := sha256.Sum256(line)
	b = strconv.AppendInt(b, int64(len(line)), 10)
	return append(hex.AppendEncode(append(b, ' '), sum[:8]), ' ')
}

// newline ends every frame.
var newline = []byte{'\n'}

// scannedRec locates one validated record inside a segment: its global
// cell index, the offset and length of the JSON payload, and whether it
// carries a fault entry.
type scannedRec struct {
	index   int
	off     int64
	n       int
	faulted bool
}

// scanSegment walks a segment's bytes record by record, validating the
// framing and per-record checksum, and returns the validated records
// plus the length of the valid prefix. It stops at the first damage —
// a torn final write, a flipped bit, a short file — so valid < len(data)
// exactly when the tail must be truncated.
func scanSegment(data []byte) (recs []scannedRec, valid int64) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		sp := bytes.IndexByte(rest, ' ')
		if sp <= 0 || sp > 9 {
			break
		}
		// Layout: len, space, 16 hex checksum chars, space, n payload
		// bytes, newline.
		n, err := strconv.Atoi(string(rest[:sp]))
		bodyAt := sp + 1 + 16 + 1
		if err != nil || n <= 0 || n > maxRecordBytes || len(rest) < bodyAt+n+1 || rest[bodyAt+n] != '\n' {
			break
		}
		body := rest[bodyAt : bodyAt+n]
		var head [32]byte
		if !bytes.Equal(rest[:bodyAt], frameHead(head[:0], body)) {
			break
		}
		index, faulted, err := harness.ProbeCanonical(body)
		if err != nil {
			break
		}
		recs = append(recs, scannedRec{index: index, off: int64(off + bodyAt), n: n, faulted: faulted})
		off += bodyAt + n + 1
	}
	return recs, int64(off)
}

// hashWrite feeds b to the hash and checks the error, like the harness's
// digest helper: hash.Hash documents Write as never failing, but a
// rolling segment digest is exactly where a silently dropped byte must
// be impossible rather than assumed.
func hashWrite(h io.Writer, b []byte) {
	if n, err := h.Write(b); err != nil || n != len(b) {
		panic(fmt.Sprintf("store: hash write: n=%d err=%v", n, err))
	}
}
