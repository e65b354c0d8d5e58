package scenario

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// TestCellBounds covers every bound a protocol declares in the registry,
// evaluated per cell on the cell's topology, (ρ,σ) bound and hinted
// destinations, and every case that gets none.
func TestCellBounds(t *testing.T) {
	const path16 = `"topology": {"name": "path", "params": {"n": 16}}, "rounds": 50`
	cases := []struct {
		name string
		src  string
		want map[int]int
	}{
		{"pts is 2+σ", `"protocol": {"name": "pts"}, "adversary": {"name": "burst"},
			"bound": {"rho": "1", "sigma": 3}, ` + path16, map[int]int{0: 5}},
		{"ppts is 1+d+σ", `"protocol": {"name": "ppts"}, "adversary": {"name": "random", "params": {"d": 8}},
			"bound": {"rho": "1/2", "sigma": 2}, ` + path16, map[int]int{0: 11}},
		{"ppts counts a repeated destination once", `"protocol": {"name": "ppts"},
			"adversary": {"name": "random", "params": {"dests": [13, 15, 15]}},
			"bound": {"rho": "1", "sigma": 2}, ` + path16, map[int]int{0: 5}},
		{"tree-pts is 2+σ", `"protocol": {"name": "tree-pts"}, "adversary": {"name": "burst"},
			"topology": {"name": "spider"}, "bound": {"rho": "1", "sigma": 3}, "rounds": 50`, map[int]int{0: 5}},
		{"tree-ppts is 1+d′+σ", `"protocol": {"name": "tree-ppts"}, "adversary": {"name": "burst", "params": {"d": 8}},
			"topology": {"name": "caterpillar"}, "bound": {"rho": "1", "sigma": 2}, "rounds": 50`, map[int]int{0: 11}},
		{"tree-ppts counts d′ on one leaf-root path", `"protocol": {"name": "tree-ppts"},
			"adversary": {"name": "random", "params": {"dests": [3, 7, 16]}},
			"topology": {"name": "spider"}, "bound": {"rho": "1", "sigma": 2}, "rounds": 50`, map[int]int{0: 5}},
		{"hpts is ℓ·m+σ+1", `"protocol": {"name": "hpts", "params": {"ell": 2}}, "adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 2}, ` + path16, map[int]int{0: 11}},
		{"only the B = 1 cell of a grid", `"protocol": {"name": "pts"}, "adversary": {"name": "random", "params": {"d": 1}},
			"bound": {"rho": "1", "sigma": 2}, "bandwidths": [1, 2], ` + path16, map[int]int{0: 4}},

		{"greedy declares none", `"protocol": {"name": "greedy-fifo"}, "adversary": {"name": "random"},
			"bound": {"rho": "1", "sigma": 2}, ` + path16, nil},
		{"none at ρ = 2", `"protocol": {"name": "pts"}, "adversary": {"name": "stream"},
			"bound": {"rho": "2", "sigma": 2}, ` + path16, nil},
		{"none at B = 2", `"protocol": {"name": "pts"}, "adversary": {"name": "random", "params": {"d": 1}},
			"bound": {"rho": "1", "sigma": 2}, "bandwidth": 2, ` + path16, nil},
		{"none for a faulted cell", `"protocol": {"name": "pts"}, "adversary": {"name": "burst"},
			"bound": {"rho": "1", "sigma": 2}, "fault": {"name": "drop", "params": {"p": "1/20"}}, ` + path16, nil},
		{"none against lowerbound", `"protocol": {"name": "pts"}, "adversary": {"name": "lowerbound"},
			"bound": {"rho": "3/4", "sigma": 0}`, nil},
		{"none for hpts at ρ·ℓ > 1", `"protocol": {"name": "hpts", "params": {"ell": 2}}, "adversary": {"name": "random"},
			"bound": {"rho": "1", "sigma": 2}, ` + path16, nil},
		{"none for hpts at n ≠ m^ℓ", `"protocol": {"name": "hpts", "params": {"ell": 2}}, "adversary": {"name": "random"},
			"bound": {"rho": "1/2", "sigma": 2}, "topology": {"name": "path", "params": {"n": 10}}, "rounds": 50`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse([]byte("{" + tc.src + "}"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.CellBounds()
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, tc.want) {
				t.Fatalf("CellBounds = %v, want %v", got, tc.want)
			}
			if !sc.IsSingle() {
				return
			}
			// A one-point report prints the bound after the protocol's Note.
			note, err := sc.Note()
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := tc.want[0]; ok && !strings.HasSuffix(note, fmt.Sprintf(" = %d", b)) {
				t.Errorf("Note = %q, want it to end in = %d", note, b)
			}
			if _, ok := tc.want[0]; !ok && strings.Contains(note, " = ") {
				t.Errorf("Note = %q states a bound for a cell without one", note)
			}
		})
	}
}
