package smallbuffers_test

// Corpus digest gate: every scenario file in testdata/scenarios/ must
// reproduce the results digest pinned in testdata/corpus_digests.json.
// The pre-fault entries were captured before the fault subsystem landed,
// so this test is the executable form of the zero-fault compatibility
// contract — scenarios without a faults axis stay byte-identical, record
// for record, digest for digest. New or intentionally changed scenarios
// regenerate their entry with:
//
//	go run ./cmd/aqtsim -scenario testdata/scenarios/<file> -result-digest

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/harness"
)

func TestCorpusDigestsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("corpus has %d scenario files but %d pinned digests — regenerate testdata/corpus_digests.json", len(files), len(want))
	}
	for _, file := range files {
		file := file
		name := filepath.Base(file)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pinned, ok := want[name]
			if !ok {
				t.Fatalf("no pinned digest for %s — add it to testdata/corpus_digests.json", name)
			}
			sc, err := sb.LoadScenarioFile(file)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := harness.RecordsDigest(agg.Records()); got != pinned {
				t.Errorf("results digest drifted:\n got %s\nwant %s\nIf the change is intentional, regenerate the pinned entry; if not, the simulation semantics changed.", got, pinned)
			}
		})
	}
}
