package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smallbuffers/internal/rat"
)

// FuzzScenarioParse feeds arbitrary bytes to Parse, the decoder of every
// scenario a daemon is posted. Parse must not panic. When it accepts the
// bytes, the scenario's shard lies inside its grid, and its canonical
// Marshal output parses back to the same scenario, field for field (a
// field Marshal dropped would still be a fixed point of the bytes), and
// marshals to the same bytes. The compiled scenario's kept digest and grid
// size are those of its canonical bytes parsed afresh, and a slice of it
// keeps its own bytes and digest, which parse back to themselves and
// leave the parent's alone. Every accepted scenario keeps the limits
// Validate enforces on what one scenario may cost: each ρ's denominator
// at most 10^6, each σ at most 2^16, each rounds entry at most 2^24 and a
// grid of at most 2^24 cells. The seeds are the pinned files, the
// malformed documents the tests feed Parse, two shards, one inside the
// grid and one past MaxInt, and a scenario just inside and one just
// outside each limit.
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

	for _, seed := range limitSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		for _, b := range sc.Bounds {
			rho, err := rat.Parse(b.Rho)
			if err != nil || rho.Den() > 1_000_000 || b.Sigma > 1<<16 {
				t.Fatalf("accepted bound %+v is past ρ's 10^6 denominator or σ's 2^16 (%v)", b, err)
			}
		}
		for _, r := range sc.Rounds {
			if r > maxRounds {
				t.Fatalf("accepted rounds %d past %d", r, maxRounds)
			}
		}
		if grid, err := sc.GridSize(); err != nil || grid > maxGridCells {
			t.Fatalf("accepted a grid of %d cells past %d (%v)", grid, maxGridCells, err)
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
		digest, grid := keptDigestAndGrid(t, sc, first)
		if d, g := keptDigestAndGrid(t, again, second); d != digest || g != grid {
			t.Fatalf("the compiled scenario keeps digest %s and grid %d, its canonical bytes parse to %s and %d", digest, grid, d, g)
		}
		if sc.Shard != nil {
			return
		}
		sub, err := sc.Slice(grid-1, 1)
		if err != nil {
			t.Fatalf("the grid's last cell does not slice: %v", err)
		}
		subBytes, err := sub.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		subDigest, _ := keptDigestAndGrid(t, sub, subBytes)
		if subDigest == digest || bytes.Equal(subBytes, first) {
			t.Fatalf("a slice kept its parent's canonical form:\n%s", subBytes)
		}
		fresh, err := Parse(subBytes)
		if err != nil {
			t.Fatalf("a slice's canonical form does not parse: %v\n%s", err, subBytes)
		}
		if d, _ := keptDigestAndGrid(t, fresh, subBytes); d != subDigest {
			t.Fatalf("a slice keeps digest %s, its bytes parse to %s", subDigest, d)
		}
		if d, _ := keptDigestAndGrid(t, sc, first); d != digest {
			t.Fatalf("slicing changed the parent's digest from %s to %s", digest, d)
		}
	})
}

// limitSeeds returns, for each limit FuzzScenarioParse asserts, a
// scenario just inside it and one just outside.
func limitSeeds() [][]byte {
	cell := func(bound, rounds string) []byte {
		return []byte(`{"topology": {"name": "path", "params": {"n": 8}}, "protocol": {"name": "pts"},
			"adversary": {"name": "burst"}, "bound": ` + bound + `, "rounds": ` + rounds + `}`)
	}
	axis := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 1)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	grid := func(seeds, rounds, bandwidths int) []byte {
		return []byte(`{"topology": {"name": "path", "params": {"n": 8}}, "protocol": {"name": "pts"},
			"adversary": {"name": "burst"}, "bound": {"rho": "1", "sigma": 1},
			"seeds": ` + axis(seeds) + `, "rounds": ` + axis(rounds) + `, "bandwidths": ` + axis(bandwidths) + `}`)
	}
	return [][]byte{
		cell(`{"rho": "1/1000000", "sigma": 1}`, "10"),
		cell(`{"rho": "1/1000001", "sigma": 1}`, "10"),
		cell(`{"rho": "1", "sigma": 65536}`, "10"),
		cell(`{"rho": "1", "sigma": 65537}`, "10"),
		cell(`{"rho": "1", "sigma": 1}`, "16777216"),
		cell(`{"rho": "1", "sigma": 1}`, "16777217"),
		grid(256, 256, 256), // 2^24 cells
		grid(97, 257, 673),  // 2^24 + 1 cells
	}
}

// keptDigestAndGrid returns the digest and grid size sc keeps, after
// checking that it keeps the canonical bytes want and the digest of those
// bytes.
func keptDigestAndGrid(t *testing.T, sc *Scenario, want []byte) (string, int) {
	t.Helper()
	data, err := sc.Marshal()
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("the scenario keeps other bytes (%v):\n%s\nwant\n%s", err, data, want)
	}
	digest, err := sc.Digest()
	if sum := sha256.Sum256(want); err != nil || digest != DigestPrefix+hex.EncodeToString(sum[:]) {
		t.Fatalf("the scenario keeps digest %s (%v), not that of its bytes", digest, err)
	}
	grid, err := sc.GridSize()
	if err != nil {
		t.Fatal(err)
	}
	return digest, grid
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
	x.comp, x.canon, y.comp, y.canon = nil, nil, nil, nil
	return fmt.Sprintf("%+v", x) == fmt.Sprintf("%+v", y)
}
