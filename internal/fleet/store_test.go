package fleet

import (
	"context"
	"testing"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/store"
)

func openStoreFor(t *testing.T, root string, sc *scenario.Scenario) *store.Store {
	t.Helper()
	dig, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	total, err := sc.GridSize()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(root, dig, harness.IndexRange{Lo: 0, Hi: total}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestFleetStoreMatchesLocalDigest is the store-mode core invariant: the
// merge streams to disk, coordinator memory stays O(1) in cells, and the
// digest re-derived from the stored bytes equals the local in-memory run.
func TestFleetStoreMatchesLocalDigest(t *testing.T) {
	sc := gridScenario(t, "fleet-store-basic", 6, 60, 0)
	want := localDigest(t, sc)
	root := t.TempDir()
	st := openStoreFor(t, root, sc)

	eps := startFleet(t, 3)
	res, err := Run(context.Background(), Config{Endpoints: eps, Store: st, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ResultsDigest != want {
		t.Fatalf("store-mode digest %s, local %s", res.Summary.ResultsDigest, want)
	}
	if res.Records != nil {
		t.Fatalf("store mode returned %d in-memory records", len(res.Records))
	}
	if res.Summary.MaxBufferedCells != 0 {
		t.Fatalf("store mode buffered %d cells in coordinator memory", res.Summary.MaxBufferedCells)
	}
	if res.Summary.Completed != 12 || res.Summary.Failed != 0 || res.Summary.Resumed != 0 {
		t.Errorf("summary counts: %+v", res.Summary)
	}
	if !st.Complete() {
		t.Fatalf("store incomplete after clean run: %d of 12", st.Count())
	}
	if st.RecordsDigest() != want {
		t.Fatalf("manifest digest %s, want %s", st.RecordsDigest(), want)
	}
	if len(res.Summary.Metrics) == 0 {
		t.Error("store mode dropped the merged metrics")
	}

	// The memory-mode control: the same run without a store buffers the
	// whole grid — the high-water mark the store exists to eliminate.
	ctrl, err := Run(context.Background(), Config{Endpoints: eps, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Summary.MaxBufferedCells != 12 {
		t.Fatalf("memory mode high-water %d, want 12", ctrl.Summary.MaxBufferedCells)
	}
	if ctrl.Summary.ResultsDigest != want {
		t.Fatalf("memory-mode digest %s, local %s", ctrl.Summary.ResultsDigest, want)
	}
}

// TestFleetStoreResume pre-populates the store with part of the grid (as
// a killed earlier run would leave it), then requires the fleet to
// dispatch only the remainder and still reproduce the full local digest.
func TestFleetStoreResume(t *testing.T) {
	sc := gridScenario(t, "fleet-store-resume", 8, 40, 0)
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs := agg.Records()
	want := agg.Digest()
	root := t.TempDir()

	// A previous "run" persisted cells 0..4 and 9..12 before dying.
	prev := openStoreFor(t, root, sc)
	for _, i := range []int{0, 1, 2, 3, 4, 9, 10, 11, 12} {
		if err := prev.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	st := openStoreFor(t, root, sc)
	res, err := Run(context.Background(), Config{Endpoints: startFleet(t, 2), Store: st, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ResultsDigest != want {
		t.Fatalf("resumed digest %s, fresh %s", res.Summary.ResultsDigest, want)
	}
	if res.Summary.Resumed != 9 {
		t.Fatalf("resumed %d cells, want 9", res.Summary.Resumed)
	}
	dispatched := 0
	for _, ds := range res.Summary.Daemons {
		dispatched += ds.Cells
	}
	if dispatched != 16-9 {
		t.Fatalf("daemons executed %d cells, want %d (the uncovered remainder)", dispatched, 16-9)
	}
	if err := VerifyLocal(context.Background(), sc, res.Summary.ResultsDigest); err != nil {
		t.Errorf("VerifyLocal after resume: %v", err)
	}
}

// TestFleetStoreAlreadyComplete: resuming a finished entry dispatches
// nothing at all and returns the stored digest.
func TestFleetStoreAlreadyComplete(t *testing.T) {
	sc := gridScenario(t, "fleet-store-done", 4, 30, 0)
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	prev := openStoreFor(t, root, sc)
	for _, rec := range agg.Records() {
		if err := prev.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	prev.Close()

	st := openStoreFor(t, root, sc)
	// A dead endpoint: any dispatch would fail the run.
	res, err := Run(context.Background(), Config{Endpoints: []string{"127.0.0.1:1"}, Store: st, FailureLimit: 1, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ResultsDigest != agg.Digest() {
		t.Fatalf("digest %s, want %s", res.Summary.ResultsDigest, agg.Digest())
	}
	if res.Summary.Resumed != 8 || res.Summary.Completed != 8 {
		t.Fatalf("summary: %+v", res.Summary)
	}
	for _, ds := range res.Summary.Daemons {
		if ds.Dispatches != 0 {
			t.Fatalf("complete entry still dispatched to %s", ds.Endpoint)
		}
	}
}

// TestFleetStoreWrongEntry: a store keyed by a different scenario or a
// wrong span refuses to merge.
func TestFleetStoreWrongEntry(t *testing.T) {
	sc := gridScenario(t, "fleet-store-wrong", 4, 30, 0)
	other := gridScenario(t, "fleet-store-other", 4, 30, 0)
	st := openStoreFor(t, t.TempDir(), other)
	if _, err := Run(context.Background(), Config{Endpoints: []string{"127.0.0.1:1"}, Store: st}, sc); err == nil {
		t.Fatal("store keyed by another scenario accepted")
	}
}
