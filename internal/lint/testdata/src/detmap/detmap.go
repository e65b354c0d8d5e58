// Package detmap exercises the detmap analyzer: map iteration in
// digest-reachable functions must use the collect-and-sort idiom.
package detmap

import "sort"

// RecordsDigest is a digest root; everything it reaches is digest path.
func RecordsDigest(m map[string]int) string {
	out := ""
	for k, v := range m { // want "range over map with values in digest path RecordsDigest"
		out += k
		_ = v
	}
	for k := range m { // want "order-sensitive range over map in digest path RecordsDigest"
		out = out + k
	}
	// The collect-keys idiom is the permitted shape.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += k
	}
	return out + helper(m)
}

// helper is reachable from the root, so its map loops are digest path too.
func helper(m map[string]int) string {
	s := ""
	for k := range m { // want "order-sensitive range over map in digest path helper"
		s = s + k
	}
	return s
}

// CountValues is unreachable from any digest root: maps iterate freely.
func CountValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// CanonicalKeys (a digest root by name) shows guarded collection:
// if-wrapped appends and counter bumps stay legal.
func CanonicalKeys(m map[string]bool) []string {
	var keys []string
	seen := 0
	for k := range m {
		if m[k] {
			keys = append(keys, k)
			seen++
		}
	}
	sort.Strings(keys)
	_ = seen
	return keys
}

// Fold's methods are digest roots by their receiver-qualified name.
type Fold struct{ m map[string]int }

// Add is Fold.Add: its map loops are digest path.
func (f *Fold) Add(k string) string {
	for key := range f.m { // want "order-sensitive range over map in digest path Fold.Add"
		k = k + key
	}
	return k
}

// tally's Add shares the name, not the receiver: not a root.
type tally struct{ m map[string]int }

func (t *tally) Add() int {
	n := 0
	for _, v := range t.m {
		n += v
	}
	return n
}
