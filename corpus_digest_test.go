package smallbuffers_test

// Corpus pin files: every scenario file in testdata/scenarios/ and
// testdata/experiments/ has the results digest pinned next to it, in
// testdata/corpus_digests.json and testdata/experiment_digests.json, and
// loads through the facade. The pre-fault corpus entries were captured
// before the fault subsystem landed, so the pins are the executable form
// of the zero-fault compatibility contract — scenarios without a faults
// axis stay byte-identical, record for record, digest for digest. The
// experiment files are the tables of E1–E4, E7 and E12, so the pins tie
// every path that runs them (aqtserve, a fleet, the store) to the checked
// local run. internal/fleet's TestDigestMatrix runs all of them on every
// path, the local one included; here a few run through the facade's
// LoadScenarioFile, so its entry point reaches the pins too.
// New or intentionally changed files regenerate both pin files with:
//
//	regen() {
//	  printf '{'; sep=
//	  for f in testdata/$1/*.json; do
//	    printf '%s\n  "%s": "%s"' "$sep" "${f##*/}" "$(go run ./cmd/aqtsim -scenario "$f" -result-digest)"
//	    sep=,
//	  done
//	  printf '\n}\n'
//	}
//	regen scenarios > testdata/corpus_digests.json
//	regen experiments > testdata/experiment_digests.json

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/harness"
)

// facadeRuns names the files that also run through the facade: a loss-
// free file with many collectors, a lossy one (its digest is v3), and an
// experiment table.
var facadeRuns = map[string]bool{
	"metrics-full.json":          true,
	"faults-lossy.json":          true,
	"experiments/e1-path16.json": true,
}

func TestCorpusDigestsPinned(t *testing.T) {
	for _, corpus := range []struct{ dir, pins string }{
		{"scenarios", "corpus_digests.json"},
		{"experiments", "experiment_digests.json"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", corpus.pins))
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]string
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join("testdata", corpus.dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(want) {
			t.Errorf("testdata/%s has %d scenario files but %d pinned digests — regenerate testdata/%s", corpus.dir, len(files), len(want), corpus.pins)
		}
		for _, file := range files {
			name := filepath.Base(file)
			pinned, ok := want[name]
			test := name
			if corpus.dir != "scenarios" {
				test = corpus.dir + "/" + name
			}
			t.Run(test, func(t *testing.T) {
				t.Parallel()
				if !ok {
					t.Fatalf("no pinned digest for %s — add it to testdata/%s", name, corpus.pins)
				}
				sc, err := sb.LoadScenarioFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if !facadeRuns[test] {
					return
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
}
