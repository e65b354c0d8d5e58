package harness

import (
	"fmt"
	"io"
	"sort"

	"smallbuffers/internal/metrics"
)

// CellRecord is the wire form of one executed cell: the cell label plus
// every deterministic integer metric of its result. Records are what the
// service tier streams to clients and what result digests are computed
// over — they deliberately carry no floats and no wall-clock data, so the
// same scenario always produces byte-identical records at any worker
// count, on any machine.
//
// Metrics carries the run's collector summaries (integer-only by
// construction, sorted by collector name): the scenario-selected set, or
// the default {max_load, latency} pair.
type CellRecord struct {
	Index           int    `json:"index"`
	Cell            string `json:"cell"`
	MaxLoad         int    `json:"max_load"`
	MaxLoadNode     int    `json:"max_load_node"`
	MaxLoadRound    int    `json:"max_load_round"`
	MaxPhysicalLoad int    `json:"max_physical_load"`
	Injected        int    `json:"injected"`
	Delivered       int    `json:"delivered"`
	Residual        int    `json:"residual"`
	MaxLatency      int    `json:"max_latency"`
	TotalLatency    int    `json:"total_latency"`
	// Faults names the cell's fault-axis entry and Dropped counts packets
	// its model lost in transit. Both are omitted for loss-free cells, so
	// the record bytes of scenarios without a faults axis are unchanged
	// from v2 (see RecordsVersion).
	Faults  string            `json:"faults,omitempty"`
	Dropped int               `json:"dropped,omitempty"`
	Metrics []metrics.Summary `json:"metrics,omitempty"`
	Err     string            `json:"error,omitempty"`
}

// MetricByName returns the record's summary for the named collector.
func (r CellRecord) MetricByName(name string) (metrics.Summary, bool) {
	for _, s := range r.Metrics {
		if s.Name == name {
			return s, true
		}
	}
	return metrics.Summary{}, false
}

// Record renders the cell result in wire form. Failed cells carry the
// error text and zero metrics.
func (r CellResult) Record() CellRecord {
	rec := CellRecord{Index: r.Cell.Index, Cell: r.Cell.String()}
	if r.Err != nil {
		rec.Err = r.Err.Error()
		return rec
	}
	rec.MaxLoad = r.Result.MaxLoad
	rec.MaxLoadNode = int(r.Result.MaxLoadNode)
	rec.MaxLoadRound = r.Result.MaxLoadRound
	rec.MaxPhysicalLoad = r.Result.MaxPhysicalLoad
	rec.Injected = r.Result.Injected
	rec.Delivered = r.Result.Delivered
	rec.Residual = r.Result.Residual
	rec.MaxLatency = r.Result.MaxLatency
	rec.TotalLatency = r.Result.TotalLatency
	rec.Faults = r.Cell.Faults
	rec.Dropped = r.Result.Dropped
	rec.Metrics = metrics.Records(r.Result.Metrics)
	return rec
}

// Records renders every cell of the sweep result in wire form, ordered by
// cell index.
func (r *SweepResult) Records() []CellRecord {
	out := make([]CellRecord, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = c.Record()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// RecordsSorted returns a copy of recs ordered by cell index — the
// canonical order for reports and digests (streams deliver records in
// completion order).
func RecordsSorted(recs []CellRecord) []CellRecord {
	out := make([]CellRecord, len(recs))
	copy(out, recs)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// RecordsVersion is the wire version of the records-digest scheme,
// folded into every digest so digests from different schema generations
// never compare equal by accident. History:
//
//	v1 — scalar-only records (pre-metrics).
//	v2 — records carry canonical metric summaries (the "metrics" field);
//	     the digest input gained this version header.
//	v3 — records may carry a fault axis ("faults"/"dropped" fields). The
//	     version is gated on use: digests over records none of which
//	     carry a fault entry keep the v2 header (their bytes are
//	     unchanged — the new fields marshal only when set), so every
//	     pre-fault corpus digest remains valid, while any faulted record
//	     set digests under v3.
//
// Bump it whenever CellRecord's wire form changes; persisted corpus
// digests must be regenerated in the same change (unless the change is
// version-gated like v3).
const RecordsVersion = 3

// RecordsDigest is the canonical content address of a set of cell
// records: "sha256:<hex>" over a version header ("v<RecordsVersion>",
// version-gated — see RecordsDigester) followed by their JSON
// encodings, one per line, sorted by cell index. Two executions of the
// same scenario — local or behind the service tier, at any worker count —
// produce the same digest, which is what the CI corpus gate and the
// remote-vs-local comparisons key on.
func RecordsDigest(recs []CellRecord) string {
	sorted := RecordsSorted(recs)
	d := NewRecordsDigester()
	for _, rec := range sorted {
		if err := d.Add(rec); err != nil {
			// Grid indices are unique by construction; a duplicate here is
			// caller corruption, not a recoverable condition.
			panic(err)
		}
	}
	return d.Sum()
}

// hashWrite feeds b to the hash and checks the error. hash.Hash
// documents Write as never failing, but digest construction is exactly
// where a silently dropped byte must be impossible rather than assumed.
func hashWrite(h io.Writer, b []byte) {
	if n, err := h.Write(b); err != nil || n != len(b) {
		panic(fmt.Sprintf("harness: hash write: n=%d err=%v", n, err))
	}
}

// Digest returns the results digest of the sweep (see RecordsDigest).
func (r *SweepResult) Digest() string {
	return RecordsDigest(r.Records())
}
