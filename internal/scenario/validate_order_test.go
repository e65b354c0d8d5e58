package scenario

import (
	"strings"
	"testing"
)

// duplicateAxisCases carry duplicates on several axes at once, each with
// the one axis the error must name.
var duplicateAxisCases = []struct {
	name, src, want string
}{
	{"topology wins over protocol and adversary", `{
		"topologies": [{"name": "path"}, {"name": "path"}],
		"protocols": [{"name": "pts"}, {"name": "pts"}],
		"adversaries": [{"name": "stream"}, {"name": "stream"}],
		"bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "duplicate topology"},
	{"protocol wins over adversary", `{
		"topology": {"name": "path"},
		"protocols": [{"name": "pts"}, {"name": "pts"}],
		"adversaries": [{"name": "stream"}, {"name": "stream"}],
		"bound": {"rho": "1", "sigma": 1}, "rounds": 10
	}`, "duplicate protocol"},
	{"rounds wins over bandwidths", `{
		"topology": {"name": "path"}, "protocol": {"name": "pts"},
		"adversary": {"name": "stream"}, "bound": {"rho": "1", "sigma": 1},
		"rounds": [10, 10], "bandwidths": [2, 2]
	}`, "duplicate rounds"},
}

// TestDuplicateAxisReportDeterministic pins the fixed axis-report order of
// Validate's uniqueness sweep: with duplicates present on several axes at
// once, the error must always name the same one (topology before protocol
// before adversary; rounds before bandwidths). The check iterated a map
// literal once, which picked the reported axis nondeterministically.
func TestDuplicateAxisReportDeterministic(t *testing.T) {
	for _, tc := range duplicateAxisCases {
		t.Run(tc.name, func(t *testing.T) {
			// One run proves nothing about iteration order; thirty distinct
			// Parse calls would each re-roll a map seed if one crept back in.
			for i := 0; i < 30; i++ {
				_, err := Parse([]byte(tc.src))
				if err == nil {
					t.Fatal("want error")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run %d: error %q missing %q", i, err, tc.want)
				}
			}
		})
	}
}
