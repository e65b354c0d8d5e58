package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse feeds arbitrary bytes to Parse, the decoder of every
// scenario a daemon is posted. Parse must not panic. When it accepts the
// bytes, the scenario's shard lies inside its grid, and its canonical
// Marshal output parses back to the same scenario, field for field (a
// field Marshal dropped would still be a fixed point of the bytes), and
// marshals to the same bytes. The seeds
// are the 30 pinned files, the malformed documents the tests feed Parse
// and two shards, one inside the grid and one past MaxInt.
func FuzzScenarioParse(f *testing.F) {
	for _, dir := range []string{"scenarios", "experiments"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, tc := range validationErrorCases {
		f.Add([]byte(tc.src))
	}
	for _, tc := range duplicateAxisCases {
		f.Add([]byte(tc.src))
	}
	for _, axes := range []map[string]string{badMetricsAxes, badFaultAxes} {
		for _, body := range axes {
			f.Add([]byte(withAxis(body)))
		}
	}
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"protocol": {"name": "ptss"}}`))
	// A shard, as the fleet dispatches one: the fuzzer does not build the
	// key on its own.
	f.Add(bytes.Replace(shardGridSrc(), []byte(`"name": "shard-grid",`),
		[]byte(`"name": "shard-grid", "shard": {"offset": 1, "count": 3},`), 1))
	// A shard whose end overflows int once passed Validate.
	f.Add(bytes.Replace(shardGridSrc(), []byte(`"name": "shard-grid",`),
		[]byte(`"name": "shard-grid", "shard": {"offset": 9223372036854775807, "count": 1},`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if sh := sc.Shard; sh != nil {
			total, err := sc.GridSize()
			if err != nil {
				t.Fatalf("an accepted scenario has no grid size: %v", err)
			}
			// Both ends are non-negative ints, so their uint64 sum is exact.
			if sh.Offset < 0 || sh.Count < 1 || uint64(sh.Offset)+uint64(sh.Count) > uint64(total) {
				t.Fatalf("accepted shard %+v lies outside the %d-cell grid", *sh, total)
			}
		}
		first, err := sc.Marshal()
		if err != nil {
			t.Fatalf("a parsed scenario does not marshal: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("the canonical form does not parse: %v\n%s", err, first)
		}
		if !sameFields(sc, again) {
			t.Fatalf("the canonical form parses to another scenario:\n%+v\n%+v\n%s", sc, again, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Marshal∘Parse is not a fixed point:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}

// sameFields reports whether two scenarios hold the same values, taking a
// nil and an empty list or map alike: an empty axis list and an absent
// one are the same axis, and both marshal to nothing.
func sameFields(a, b *Scenario) bool {
	x, y := *a, *b
	if (x.Shard == nil) != (y.Shard == nil) || x.Shard != nil && *x.Shard != *y.Shard {
		return false
	}
	x.Shard, y.Shard = nil, nil
	return fmt.Sprintf("%+v", x) == fmt.Sprintf("%+v", y)
}
