// Package store is the persistence tier: a content-addressed,
// append-only on-disk result store with checkpoint/resume semantics.
//
// An entry holds the cell records of one scenario (or one shard of one),
// keyed by the scenario's content digest — the same address the service
// tier's cache and the fleet's verification gates already speak. Records
// are appended as they complete, in any order, as self-validating framed
// lines (see frameHead) in append-only segment files; a manifest tracks
// the committed state. Opening an entry recovers it: every segment is
// scanned record by record, torn or bit-flipped tails are truncated,
// segments whose committed prefix no longer matches their manifest
// digest are discarded, and whatever survives is exactly the set of
// durable cells — the uncovered remainder is what a resumed run still
// owes. Nothing in an entry is precious: every byte is derivable by
// re-running the scenario, so recovery always prefers dropping a
// suspect record over serving it.
//
// The store obeys the repo's determinism discipline end to end: record
// bytes are a record's canonical encoding, which one codec makes and
// reads (harness.AppendCanonical, DecodeCanonical and ProbeCanonical,
// held to encoding/json by their tests): what RecordsDigest hashes, and
// what a caller holding them hands to AppendEncoded. The digest of a
// complete entry is re-derived from the stored bytes via
// harness.RecordsDigester in O(1) memory and without decoding a record,
// and the manifest carries only integers and strings.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"smallbuffers/internal/harness"
)

// DefaultSyncEvery is the default number of appends between automatic
// manifest syncs.
const DefaultSyncEvery = 64

// Options configures an entry.
type Options struct {
	// SyncEvery is the number of appends between automatic manifest
	// syncs (the segment bytes go straight to the file regardless; the
	// sync flushes buffers and commits the manifest's view of them).
	// 0 means DefaultSyncEvery.
	SyncEvery int
}

// recEntry locates one covered cell's record: the segment (index into
// segs/files), and the offset and length of its JSON payload. n == 0
// means the cell is not covered — a framed payload is never empty.
// faulted records whether the record carries a fault entry, which picks
// the digest's version (see harness.RecordsDigester), so Digest hashes
// the stored bytes without decoding them.
type recEntry struct {
	seg     int32
	n       int32
	off     int64
	faulted bool
}

// Store is one open entry. It is safe for concurrent use; Append may be
// called from many goroutines (the fleet coordinator's daemon workers
// do), and every record is durable in the segment file as soon as
// Append returns, up to OS buffering — a killed process loses at most
// the records after the last buffer flush, never previously synced ones.
type Store struct {
	mu        sync.Mutex
	dir       string
	scenario  string
	span      harness.IndexRange
	syncEvery int

	segs  []segmentMeta
	files []*os.File // read handles, parallel to segs; the active one is last

	active     *os.File // write handle of the session's segment; nil until first append
	activeW    *bufio.Writer
	activeHash hash.Hash // of the active segment's bytes; its manifest digest is taken at sync
	head       [32]byte  // the frame head AppendEncoded writes; a local array would escape

	entries       []recEntry // indexed by cell index − span.Lo
	count         int
	opened        int // covered count at Open time (the resume baseline)
	unsynced      int
	recordsDigest string
	closed        bool
}

// EntryDir returns the directory of the entry for the given scenario
// digest under root.
func EntryDir(root, scenarioDigest string) string {
	return filepath.Join(root, strings.ReplaceAll(scenarioDigest, ":", "-"))
}

// Remove deletes the entry for the given scenario digest, if any — the
// corrupt-eviction path, and the manual reset.
func Remove(root, scenarioDigest string) error {
	if err := checkDigest(scenarioDigest); err != nil {
		return err
	}
	return os.RemoveAll(EntryDir(root, scenarioDigest))
}

// checkDigest guards the digest-to-path mapping: digests name
// directories, so anything outside the canonical "algo:hex" shape is
// rejected rather than joined into a path.
func checkDigest(d string) error {
	if d == "" || len(d) > 200 {
		return fmt.Errorf("store: malformed scenario digest %q", d)
	}
	for _, c := range d {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == ':':
		default:
			return fmt.Errorf("store: malformed scenario digest %q", d)
		}
	}
	return nil
}

// Open opens (creating or recovering) the entry for scenarioDigest under
// root, spanning the global cell-index range span — [0, gridSize) for a
// whole scenario, the shard's range for a slice. Recovery is total: any
// combination of torn final writes, flipped bits, and a manifest that
// lags or contradicts the segment files yields a store covering exactly
// the records that survive validation, with everything else uncovered
// (and therefore re-run on resume). An entry written for a different
// span or store format refuses to open rather than guessing.
func Open(root, scenarioDigest string, span harness.IndexRange, opts Options) (*Store, error) {
	if err := checkDigest(scenarioDigest); err != nil {
		return nil, err
	}
	if span.Lo < 0 || span.Count() <= 0 {
		return nil, fmt.Errorf("store: entry span %v is empty", span)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	dir := EntryDir(root, scenarioDigest)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		scenario:  scenarioDigest,
		span:      span,
		syncEvery: opts.SyncEvery,
		entries:   make([]recEntry, span.Count()),
	}
	man, err := loadManifest(dir)
	if err != nil {
		// An unreadable manifest is recoverable — the segments are
		// self-validating — but only by treating every cross-check it
		// would have provided as failed: rebuild it from the segments.
		man = nil
	}
	if man != nil {
		if man.Format != FormatVersion {
			return nil, fmt.Errorf("store: entry %s has format %d, this build reads %d (delete the entry to recompute)", dir, man.Format, FormatVersion)
		}
		if man.Scenario != scenarioDigest {
			return nil, fmt.Errorf("store: entry %s holds scenario %s, not %s", dir, man.Scenario, scenarioDigest)
		}
		if man.Lo != span.Lo || man.Hi != span.Hi {
			return nil, fmt.Errorf("store: entry %s spans [%d,%d), caller wants %v", dir, man.Lo, man.Hi, span)
		}
	}
	if err := s.recover(man); err != nil {
		return nil, err
	}
	s.opened = s.count
	if man != nil && man.RecordsDigest != "" && s.count == s.span.Count() {
		s.recordsDigest = man.RecordsDigest
	}
	return s, nil
}

// recover scans the entry's segment files (discovered by glob, so a
// missing or stale manifest cannot hide a segment), validates every
// record, truncates damage, and rebuilds the coverage map.
func (s *Store) recover(man *manifest) error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.ndj"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		base := filepath.Base(name)
		var meta *segmentMeta
		if man != nil {
			for i := range man.Segments {
				if man.Segments[i].File == base {
					meta = &man.Segments[i]
					break
				}
			}
		}
		// The manifest's committed prefix must hash to what the manifest
		// recorded: appends only ever extend a segment, so a divergent
		// prefix — or a negative length, which no sync writes — means the
		// content changed underneath us: discard the segment, its cells
		// get recomputed.
		if meta != nil && meta.Bytes <= int64(len(data)) {
			intact := meta.Bytes >= 0
			if intact {
				sum := sha256.Sum256(data[:meta.Bytes])
				intact = "sha256:"+hex.EncodeToString(sum[:]) == meta.Digest
			}
			if !intact {
				if err := os.Remove(name); err != nil {
					return err
				}
				continue
			}
		}
		recs, valid := scanSegment(data)
		if len(recs) == 0 {
			if err := os.Remove(name); err != nil {
				return err
			}
			continue
		}
		if valid < int64(len(data)) {
			if err := os.Truncate(name, valid); err != nil {
				return err
			}
		}
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		segIdx := int32(len(s.segs))
		kept := 0
		for _, r := range recs {
			if r.index < s.span.Lo || r.index >= s.span.Hi {
				continue // foreign index: never serve it
			}
			e := &s.entries[r.index-s.span.Lo]
			if e.n != 0 {
				continue // duplicate: first copy wins
			}
			*e = recEntry{seg: segIdx, n: int32(r.n), off: r.off, faulted: r.faulted}
			s.count++
			kept++
		}
		sum := sha256.Sum256(data[:valid])
		s.segs = append(s.segs, segmentMeta{
			File:    base,
			Records: kept,
			Bytes:   valid,
			Digest:  "sha256:" + hex.EncodeToString(sum[:]),
		})
		s.files = append(s.files, f)
	}
	return nil
}

// Span returns the entry's global cell-index span.
func (s *Store) Span() harness.IndexRange { return s.span }

// Scenario returns the scenario digest the entry is keyed by.
func (s *Store) Scenario() string { return s.scenario }

// Count returns the number of covered cells.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Opened returns the number of cells that were already covered when the
// entry was opened — the cells a resumed run does not re-execute.
func (s *Store) Opened() int { return s.opened }

// Complete reports whether every cell of the span is covered.
func (s *Store) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count == s.span.Count()
}

// Has reports whether the cell with the given global index is covered.
func (s *Store) Has(index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return index >= s.span.Lo && index < s.span.Hi && s.entries[index-s.span.Lo].n != 0
}

// Covered returns the covered cells as disjoint ascending index ranges.
func (s *Store) Covered() []harness.IndexRange {
	return s.ranges(true, s.span)
}

// Uncovered returns the span's still-missing cells as disjoint ascending
// index ranges — the work a resumed run owes.
func (s *Store) Uncovered() []harness.IndexRange {
	return s.ranges(false, s.span)
}

// UncoveredIn returns the uncovered cells within r (clamped to the
// span) — what remains of a dispatched shard after a partial delivery.
func (s *Store) UncoveredIn(r harness.IndexRange) []harness.IndexRange {
	if r.Lo < s.span.Lo {
		r.Lo = s.span.Lo
	}
	if r.Hi > s.span.Hi {
		r.Hi = s.span.Hi
	}
	if r.Count() <= 0 {
		return nil
	}
	return s.ranges(false, r)
}

func (s *Store) ranges(covered bool, within harness.IndexRange) []harness.IndexRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []harness.IndexRange
	lo := -1
	for i := within.Lo; i < within.Hi; i++ {
		if (s.entries[i-s.span.Lo].n != 0) == covered {
			if lo < 0 {
				lo = i
			}
			continue
		}
		if lo >= 0 {
			out = append(out, harness.IndexRange{Lo: lo, Hi: i})
			lo = -1
		}
	}
	if lo >= 0 {
		out = append(out, harness.IndexRange{Lo: lo, Hi: within.Hi})
	}
	return out
}

// Append makes one record durable. Records may arrive in any order (the
// fleet merges shards concurrently); an index outside the span or
// already covered is an error — the caller's bookkeeping, not the
// record, is wrong, and silently dropping either would hide it.
func (s *Store) Append(rec harness.CellRecord) error {
	return s.AppendEncoded(rec.Index, rec.Faults != "", harness.MarshalCanonical(rec))
}

// AppendEncoded is Append for a caller that holds the record's canonical
// encoding: line is exactly what harness.AppendCanonical gives for the
// record with the given index, and faulted tells whether it carries a
// fault entry. The store frames and hashes those bytes as they are,
// writing the frame (see frameHead) straight into the segment's writer
// and hash; it does not keep line.
func (s *Store) AppendEncoded(index int, faulted bool, line []byte) error {
	if len(line) == 0 || len(line) > maxRecordBytes {
		return fmt.Errorf("store: record %d encodes to %d bytes", index, len(line))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append to closed entry %s", s.dir)
	}
	if index < s.span.Lo || index >= s.span.Hi {
		return fmt.Errorf("store: record index %d outside span %v", index, s.span)
	}
	if s.entries[index-s.span.Lo].n != 0 {
		return fmt.Errorf("store: record %d appended twice", index)
	}
	if s.active == nil {
		if err := s.startSegmentLocked(); err != nil {
			return err
		}
	}
	frame := [...][]byte{frameHead(s.head[:0], line), line, newline}
	meta := &s.segs[len(s.segs)-1]
	for _, b := range frame {
		if _, err := s.activeW.Write(b); err != nil {
			return fmt.Errorf("store: segment %s: %w", meta.File, err)
		}
		hashWrite(s.activeHash, b)
	}
	off := meta.Bytes + int64(len(frame[0]))
	meta.Bytes += int64(len(frame[0]) + len(line) + 1)
	meta.Records++
	s.entries[index-s.span.Lo] = recEntry{seg: int32(len(s.segs) - 1), n: int32(len(line)), off: off, faulted: faulted}
	s.count++
	s.unsynced++
	if s.unsynced >= s.syncEvery {
		return s.syncLocked()
	}
	return nil
}

// startSegmentLocked creates this session's append segment: recovery
// never extends an old segment (its manifest state is frozen at what the
// scan validated), so every writing session gets a fresh file.
func (s *Store) startSegmentLocked() error {
	var name string
	for n := len(s.segs) + 1; ; n++ {
		name = fmt.Sprintf("seg-%06d.ndj", n)
		clash := false
		for _, m := range s.segs {
			if m.File == name {
				clash = true
				break
			}
		}
		if !clash {
			break
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.active = f
	s.activeW = bufio.NewWriter(f)
	s.activeHash = sha256.New()
	sum := sha256.Sum256(nil)
	s.segs = append(s.segs, segmentMeta{File: name, Digest: "sha256:" + hex.EncodeToString(sum[:])})
	s.files = append(s.files, f)
	return nil
}

// Sync flushes buffered segment bytes and commits the manifest's view of
// every segment. After Sync returns, a kill -9 loses nothing appended
// before it.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.activeW != nil {
		if err := s.activeW.Flush(); err != nil {
			return err
		}
		s.segs[len(s.segs)-1].Digest = "sha256:" + hex.EncodeToString(s.activeHash.Sum(nil))
	}
	m := &manifest{
		Format:        FormatVersion,
		Scenario:      s.scenario,
		Lo:            s.span.Lo,
		Hi:            s.span.Hi,
		Segments:      s.segs,
		RecordsDigest: s.recordsDigest,
	}
	if err := saveManifest(s.dir, m); err != nil {
		return err
	}
	s.unsynced = 0
	return nil
}

// RecordsDigest returns the manifest-recorded digest of the complete
// record set, or "" when none has been recorded.
func (s *Store) RecordsDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordsDigest
}

// SetRecordsDigest records the digest of the complete record set in the
// manifest. It refuses an incomplete entry: the digest is a claim about
// the whole span.
func (s *Store) SetRecordsDigest(d string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != s.span.Count() {
		return fmt.Errorf("store: digest recorded on incomplete entry (%d of %d cells)", s.count, s.span.Count())
	}
	s.recordsDigest = d
	return s.syncLocked()
}

// Scan streams the covered records in global index order, decoding each
// from its segment with harness.DecodeCanonical. Memory stays O(1) in
// cells: one record is alive at a time.
func (s *Store) Scan(fn func(harness.CellRecord) error) error {
	return s.ScanEncoded(func(line []byte) error {
		rec, err := harness.DecodeCanonical(line)
		if err != nil {
			return fmt.Errorf("store: record decode: %w", err)
		}
		return fn(rec)
	})
}

// ScanEncoded is Scan without the decoding: it streams each covered
// record's canonical encoding as stored, valid only during the call.
func (s *Store) ScanEncoded(fn func(line []byte) error) error {
	return s.scanLines(func(_ int, _ recEntry, line []byte) error { return fn(line) })
}

// scanLines streams the covered records' raw canonical JSON lines in
// global index order, each with its index and entry.
func (s *Store) scanLines(fn func(index int, e recEntry, line []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeW != nil {
		if err := s.activeW.Flush(); err != nil {
			return err
		}
	}
	var longest int32
	for _, e := range s.entries {
		longest = max(longest, e.n)
	}
	buf := make([]byte, longest)
	for i := range s.entries {
		e := s.entries[i]
		if e.n == 0 {
			continue
		}
		b := buf[:e.n]
		if _, err := s.files[e.seg].ReadAt(b, e.off); err != nil {
			return fmt.Errorf("store: segment %s: %w", s.segs[e.seg].File, err)
		}
		if err := fn(s.span.Lo+i, e, b); err != nil {
			return err
		}
	}
	return nil
}

// Digest re-derives the records digest of the covered cells from the
// stored bytes, streaming in index order through harness.RecordsDigester
// — O(1) memory at any entry size — without decoding a record: each
// entry knows its index and whether it carries a fault entry. On a
// complete entry this is the digest a fresh unsharded run of the
// scenario produces; callers holding a manifest digest (RecordsDigest)
// compare the two and treat a mismatch as corruption.
func (s *Store) Digest() (string, error) {
	d := harness.NewRecordsDigester()
	err := s.scanLines(func(index int, e recEntry, line []byte) error {
		return d.AddEncoded(index, e.faulted, line)
	})
	if err != nil {
		return "", err
	}
	return d.Sum(), nil
}

// Close syncs and releases the entry. The entry remains on disk; a later
// Open resumes from exactly this state.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	for _, f := range s.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	s.closed = true
	return err
}
