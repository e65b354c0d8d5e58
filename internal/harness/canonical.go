package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"smallbuffers/internal/freelist"
	"smallbuffers/internal/metrics"
)

// AppendCanonical appends rec's canonical encoding to b: the exact bytes
// json.Marshal gives for it, which a cell frame carries, a store keeps and
// a results digest hashes. One walk over a record's fields, in their one
// canonical order, writes it and reads it back (DecodeCanonical) without
// reflection; encoding/json is the reference the tests hold it to.
func AppendCanonical(b []byte, rec CellRecord) []byte {
	c := codec{b: b, ok: true}
	c.record(&rec)
	return c.b
}

// scratch holds the buffers records are encoded into when only a copy or
// a comparison is kept, shared across runs so that a short run does not
// grow its own; a buffer past 64 KB, more than any record needs, is dropped.
var scratch freelist.List[[]byte]

// withCanonical hands rec's canonical encoding, valid only during the
// call, to fn.
func withCanonical(rec CellRecord, fn func(line []byte)) {
	b, _ := scratch.Get()
	b = AppendCanonical(b[:0], rec)
	fn(b)
	if cap(b) <= 64<<10 {
		scratch.Put(b, 1)
	}
}

// MarshalCanonical returns rec's canonical encoding in a slice of its own,
// of exactly its length.
func MarshalCanonical(rec CellRecord) (line []byte) {
	withCanonical(rec, func(b []byte) { line = bytes.Clone(b) })
	return line
}

// DecodeCanonical decodes a record's canonical encoding. It reads the
// fields in canonical order and accepts line only if encoding the record
// again gives line back: a reordered, respaced, duplicated or truncated
// field, a non-canonical number or escape, or an int overflow is an error.
func DecodeCanonical(line []byte) (CellRecord, error) {
	var rec CellRecord
	c := codec{b: line, dec: true, ok: true}
	c.record(&rec)
	if c.ok = c.ok && c.i == len(line); c.ok {
		withCanonical(rec, func(b []byte) { c.ok = bytes.Equal(b, line) })
	}
	if !c.ok {
		return CellRecord{}, fmt.Errorf("harness: record is not in canonical form (at byte %d of %d)", c.i, len(line))
	}
	return rec, nil
}

// ProbeCanonical reads a record's index, its first field, and whether it
// carries a fault entry from its canonical encoding's fixed prefix,
// without decoding the rest or allocating.
func ProbeCanonical(line []byte) (index int, faulted bool, err error) {
	c := codec{b: line, dec: true, ok: true}
	c.int(`{"index":`, &index, false)
	c.lit(`,"cell":`)
	c.i = c.stringEnd()
	for _, k := range intKeys {
		var v int
		c.int(k, &v, false)
	}
	if faulted = c.opt(`,"faults":"`); !c.ok {
		return 0, false, fmt.Errorf("harness: record prefix is not in canonical form (at byte %d of %d)", c.i, len(line))
	}
	return index, faulted, nil
}

// intKeys are the keys of the nine ints after a record's cell label.
var intKeys = [...]string{`,"max_load":`, `,"max_load_node":`, `,"max_load_round":`,
	`,"max_physical_load":`, `,"injected":`, `,"delivered":`, `,"residual":`,
	`,"max_latency":`, `,"total_latency":`}

// codec walks a record's fields in canonical order: it appends each to b,
// or, when dec is set, reads each from b at i into the record. A read
// that does not find what the canonical form puts next clears ok, after
// which every read is a no-op. A field tagged omitempty is written only
// when it is not empty, and read only when its key comes next.
type codec struct {
	b       []byte
	i       int
	dec, ok bool
}

func (c *codec) record(r *CellRecord) {
	c.int(`{"index":`, &r.Index, false)
	c.str(`,"cell":`, &r.Cell, false)
	for i, v := range [...]*int{&r.MaxLoad, &r.MaxLoadNode, &r.MaxLoadRound, &r.MaxPhysicalLoad,
		&r.Injected, &r.Delivered, &r.Residual, &r.MaxLatency, &r.TotalLatency} {
		c.int(intKeys[i], v, false)
	}
	c.str(`,"faults":`, &r.Faults, true)
	c.int(`,"dropped":`, &r.Dropped, true)
	list(c, `,"metrics":`, &r.Metrics, len(`{"name":"","kind":""},`), c.summary)
	c.str(`,"error":`, &r.Err, true)
	c.lit("}")
}

func (c *codec) summary(s *metrics.Summary) {
	c.str(`{"name":`, &s.Name, false)
	c.str(`,"kind":`, &s.Kind, false)
	c.scalars(`,"scalars":`, &s.Scalars)
	list(c, `,"series":`, &s.Series, len(`{"key":"","agg":"","stride":0,"rounds":0},`), c.series)
	if c.field(`,"hist":`, true, s.Hist == nil) {
		if c.dec {
			s.Hist = new(metrics.HistRecord)
		}
		h := s.Hist
		c.int(`{"count":`, &h.Count, false)
		c.int(`,"sum":`, &h.Sum, false)
		c.int(`,"min":`, &h.Min, false)
		c.int(`,"max":`, &h.Max, false)
		list(c, `,"exact":`, &h.Exact, len("0,"), c.elem)
		list(c, `,"log2":`, &h.Log2, len("0,"), c.elem)
		c.lit("}")
	}
	c.str(`,"anchor":`, &s.Anchor, true)
	list(c, `,"anchored":`, &s.Anchored, len(`"",`), func(a *string) { c.str("", a, false) })
	c.lit("}")
}

func (c *codec) series(sr *metrics.SeriesRecord) {
	c.str(`{"key":`, &sr.Key, false)
	c.str(`,"agg":`, &sr.Agg, false)
	c.int(`,"stride":`, &sr.Stride, false)
	c.int(`,"rounds":`, &sr.Rounds, false)
	list(c, `,"values":`, &sr.Values, len("0,"), c.elem)
	list(c, `,"tail":`, &sr.Tail, len("0,"), c.elem)
	c.lit("}")
}

// elem walks one int of a list.
func (c *codec) elem(v *int) { c.int("", v, false) }

// field walks key and reports whether its value follows: always, unless
// the field is omitempty and empty (written) or absent (read).
func (c *codec) field(key string, omitEmpty, empty bool) bool {
	switch {
	case omitEmpty && c.dec:
		return c.opt(key)
	case omitEmpty && empty:
		return false
	}
	c.lit(key)
	return c.ok
}

func (c *codec) int(key string, v *int, omitEmpty bool) {
	if !c.field(key, omitEmpty, *v == 0) {
		return
	}
	if !c.dec {
		c.b = strconv.AppendInt(c.b, int64(*v), 10)
		return
	}
	j := c.i
	for j < len(c.b) && (c.b[j] == '-' || '0' <= c.b[j] && c.b[j] <= '9') {
		j++
	}
	n, err := strconv.ParseInt(string(c.b[c.i:j]), 10, strconv.IntSize)
	*v, c.i, c.ok = int(n), j, err == nil
}

func (c *codec) str(key string, s *string, omitEmpty bool) {
	if !c.field(key, omitEmpty, *s == "") {
		return
	}
	if !c.dec {
		c.b = appendString(c.b, *s)
		return
	}
	start := c.i
	if c.i = c.stringEnd(); !c.ok {
		return
	}
	// A plain string reads as it is; any other is json.Unmarshal's, and
	// the re-encoding check decides whether its escapes are canonical.
	if *s = string(c.b[start+1 : c.i-1]); !plain(*s) {
		var u string
		c.ok = json.Unmarshal(c.b[start:c.i], &u) == nil
		*s = u
	}
}

// list walks the omitempty list *xs under key, elem for each element. A
// read sizes the list first; an element and its comma take least bytes.
func list[T any](c *codec, key string, xs *[]T, least int, elem func(*T)) {
	if !c.field(key, true, len(*xs) == 0) {
		return
	}
	if c.dec {
		*xs = make([]T, c.count(least))
	}
	for i := range *xs {
		c.open(i, "[")
		elem(&(*xs)[i])
	}
	c.lit("]")
}

// scalars walks the omitempty map *m under key, its keys sorted.
func (c *codec) scalars(key string, m *map[string]int) {
	if !c.field(key, true, len(*m) == 0) {
		return
	}
	if c.dec {
		*m = map[string]int{}
		for i, n := 0, c.count(len(`"":0,`)); i < n; i++ {
			k, v := "", 0
			c.open(i, "{")
			c.str("", &k, false)
			c.int(":", &v, false)
			(*m)[k] = v
		}
	} else {
		keys := make([]string, 0, 16)
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			v := (*m)[k]
			c.open(i, "{")
			c.str("", &k, false)
			c.int(":", &v, false)
		}
	}
	c.lit("}")
}

// open walks the bracket before a list's first element (i = 0) or the
// comma before any other.
func (c *codec) open(i int, bracket string) {
	if i > 0 {
		bracket = ","
	}
	c.lit(bracket)
}

// count returns the number of elements of the list that opens at c.i:
// one more than its commas outside strings and nested brackets, but no
// more than its bytes hold, so a hostile line cannot inflate a read.
func (c *codec) count(least int) int {
	n, depth, p := 1, 0, *c
	for p.ok && p.i+1 < len(p.b) && depth >= 0 {
		p.i++
		switch p.b[p.i] {
		case '"':
			p.i = p.stringEnd() - 1
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return min(n, (p.i-c.i)/least)
}

// lit writes s, or reads it.
func (c *codec) lit(s string) {
	if c.dec {
		c.ok = c.opt(s)
	} else {
		c.b = append(c.b, s...)
	}
}

// opt reads s if it comes next.
func (c *codec) opt(s string) bool {
	ok := c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s
	if ok {
		c.i += len(s)
	}
	return ok
}

// stringEnd returns the index just past the JSON string starting at c.i.
func (c *codec) stringEnd() int {
	if c.ok && c.i < len(c.b) && c.b[c.i] == '"' {
		for j := c.i + 1; j < len(c.b); j++ {
			switch c.b[j] {
			case '"':
				return j + 1
			case '\\':
				j++
			}
		}
	}
	c.ok = false
	return c.i
}

// appendString appends s as a JSON string: a plain one as it is, any other
// through json.Marshal, so its escaping follows the Go release exactly.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		return append(append(append(b, '"'), s...), '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// plain reports whether json.Marshal writes s byte for byte: printable
// ASCII but ", \, <, > and &, and valid UTF-8 but U+2028 and U+2029 (and
// U+FFFD, as which a range over s reads invalid UTF-8).
func plain(s string) bool {
	for _, r := range s {
		switch {
		case r < ' ', r == 0x7f, r == '"', r == '\\', r == '<', r == '>', r == '&',
			r == '\u2028', r == '\u2029', r == utf8.RuneError:
			return false
		}
	}
	return true
}
