package smallbuffers_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/service"
)

// TestServingFacade exercises the Tier-3 surface end to end: parse and
// digest the scenario through the facade, serve it over HTTP with
// internal/service's Server, and check the served results digest against
// a local run.
func TestServingFacade(t *testing.T) {
	src := `{
		"name": "facade-serving",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 120,
		"seeds": [1, 2]
	}`
	sc, err := sb.ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	scenarioDigest, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	localDigest := agg.Digest()
	if localDigest != harness.RecordsDigest(agg.Records()) {
		t.Error("harness.RecordsDigest disagrees with SweepResult.Digest")
	}

	srv := service.New(service.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep service.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d (%s)", resp.StatusCode, rep.Error)
	}
	if rep.Digest != scenarioDigest {
		t.Errorf("served scenario digest %s, local %s", rep.Digest, scenarioDigest)
	}
	if rep.ResultsDigest != localDigest {
		t.Errorf("served results digest %s, local %s", rep.ResultsDigest, localDigest)
	}

	cat := registry.Catalog()
	if len(cat.Protocols) == 0 || len(cat.Adversaries) == 0 {
		t.Errorf("catalog incomplete: %d protocols, %d adversaries", len(cat.Protocols), len(cat.Adversaries))
	}
}
