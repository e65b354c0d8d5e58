package scenario

import (
	"strings"
	"sync"
	"testing"
)

// Two spellings of the same workload: singular vs plural axes, omitted
// vs explicit defaults, unreduced vs reduced rationals.
const digestSpellingA = `{
	"topology": {"name": "path", "params": {"n": 16}},
	"protocol": {"name": "ppts"},
	"adversary": {"name": "random", "params": {"d": 2}},
	"bound": {"rho": "2/4", "sigma": 2},
	"rounds": 100
}`

const digestSpellingB = `{
	"topologies": [{"name": "path", "params": {"n": 16}}],
	"protocols": [{"name": "ppts", "params": {"drain": false}}],
	"adversary": {"name": "random", "params": {"d": 2}},
	"bounds": [{"rho": "1/2", "sigma": 2}],
	"rounds": [100],
	"seed": 1
}`

func TestDigestCanonical(t *testing.T) {
	a, err := Parse([]byte(digestSpellingA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(digestSpellingB))
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("equivalent spellings digest differently:\n%s\n%s", da, db)
	}
	if !strings.HasPrefix(da, DigestPrefix) {
		t.Errorf("digest %q lacks the %q prefix", da, DigestPrefix)
	}
}

func TestDigestDistinguishesWorkloads(t *testing.T) {
	a, err := Parse([]byte(digestSpellingA))
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(digestSpellingA, `"rounds": 100`, `"rounds": 101`, 1)
	b, err := Parse([]byte(bumped))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Digest()
	db, _ := b.Digest()
	if da == db {
		t.Error("distinct workloads share a digest")
	}
}

func TestDigestStableAcrossRoundTrip(t *testing.T) {
	a, err := Parse([]byte(digestSpellingA))
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("digest not a round-trip fixed point: %s vs %s", da, db)
	}
}

func TestDigestRejectsInvalid(t *testing.T) {
	sc := &Scenario{} // no protocol/adversary/bound
	if _, err := sc.Digest(); err == nil {
		t.Error("digest of an invalid scenario succeeded")
	}
}

// TestDigestKeptAcrossGoroutines asks one compiled scenario for its
// digest, canonical bytes and slices from several goroutines at once, as
// a fleet coordinator slices its parent: every caller gets the bytes and
// digest made once, and each slice its own (run it under -race).
func TestDigestKeptAcrossGoroutines(t *testing.T) {
	sc, err := Parse(shardGridSrc())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sc.GridSize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	sc, _ = Parse(shardGridSrc()) // a fresh scenario: nothing made yet
	var wg sync.WaitGroup
	digests := make([]string, 2*grid)
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < grid {
				sub, err := sc.Slice(i, 1)
				if err != nil {
					t.Error(err)
					return
				}
				digests[i], err = sub.Digest()
				if err != nil {
					t.Error(err)
				}
				return
			}
			if _, err := sc.Marshal(); err != nil {
				t.Error(err)
			}
			digests[i], _ = sc.Digest()
		}()
	}
	wg.Wait()
	seen := map[string]bool{want: true}
	for i, d := range digests {
		if i >= grid && d != want {
			t.Errorf("caller %d got digest %s, want %s", i, d, want)
		}
		if i < grid {
			if seen[d] {
				t.Errorf("slice %d repeats digest %s", i, d)
			}
			seen[d] = true
		}
	}
}
