package fleet

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smallbuffers/internal/service"
)

func TestParseEndpoints(t *testing.T) {
	file := filepath.Join(t.TempDir(), "fleet.txt")
	if err := os.WriteFile(file, []byte("# the fleet\na:1\n\n  b:2  \n# c:3\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	dupFile := filepath.Join(t.TempDir(), "dup.txt")
	if err := os.WriteFile(dupFile, []byte("a:1\nhttp://a:1/\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, arg string
		want      []string
		err       string
	}{
		{"comma list", "a:1, b:2,,", []string{"a:1", "b:2"}, ""},
		{"comment in a list", "a:1,# c:3", []string{"a:1"}, ""},
		{"full URLs", "http://a:1,https://b:2/", []string{"http://a:1", "https://b:2/"}, ""},
		{"file with blank and comment lines", "@" + file, []string{"a:1", "b:2"}, ""},
		{"duplicate", "a:1,b:2,a:1", nil, "same daemon"},
		{"duplicate after normalising", "a:1,http://a:1/", nil, "same daemon"},
		{"duplicate in a file", "@" + dupFile, nil, "same daemon"},
		{"empty", "", nil, "no endpoints"},
		{"only separators", ",, ,", nil, "no endpoints"},
		{"missing file", "@/nonexistent/fleet.txt", nil, "fleet file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseEndpoints(tc.arg)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("ParseEndpoints(%q) = %v, %v; want error containing %q", tc.arg, got, err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseEndpoints(%q) = %v, %v; want %v", tc.arg, got, err, tc.want)
			}
		})
	}
}

// TestDuplicateEndpointsRejected: a daemon listed twice, even spelled two
// ways, would be polled twice and its runs and cells counted twice in a
// snapshot, and dispatched to twice by a run.
func TestDuplicateEndpointsRejected(t *testing.T) {
	d := newDaemon(t, service.Config{Workers: 1, SweepWorkers: 1})
	cfg := Config{Endpoints: []string{d.addr(), d.ts.URL + "/"}}
	if snap, err := LiveSnapshot(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "same daemon") {
		t.Fatalf("LiveSnapshot over a duplicated daemon = %+v, %v; want a same-daemon error", snap, err)
	}
	sc := gridScenario(t, "fleet-dup-eps", 2, 20, 0)
	if _, err := Run(context.Background(), cfg, sc); err == nil || !strings.Contains(err.Error(), "same daemon") {
		t.Fatalf("Run over a duplicated daemon: err = %v, want a same-daemon error", err)
	}
}
