package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// readLog reads a -o log: one result per line. Runs that failed their
// checks are left out of the comparison and counted.
func readLog(path string) (runs []*result, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() // read only
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			skipped++
			continue
		}
		runs = append(runs, &r)
	}
	return runs, skipped, sc.Err()
}

// pairRuns pairs the parent's and the change's runs of one workload by
// seed and mode (traced or not), in log order: the k-th parent run of a
// seed with the k-th change run of the same seed and mode.
func pairRuns(parent, change []*result, workload string) [][2]*result {
	type key struct {
		seed  int64
		trace bool
	}
	queued := map[key][]*result{}
	for _, r := range change {
		if r.Workload == workload {
			k := key{r.Seed, r.Trace}
			queued[k] = append(queued[k], r)
		}
	}
	var pairs [][2]*result
	for _, p := range parent {
		k := key{p.Seed, p.Trace}
		if p.Workload != workload || len(queued[k]) == 0 {
			continue
		}
		pairs = append(pairs, [2]*result{p, queued[k][0]})
		queued[k] = queued[k][1:]
	}
	return pairs
}

// boundFloor is, per metric, the least worsening that counts against its
// bound: set-up takes tens of milliseconds, where a share of the median
// is a few milliseconds of process start-up jitter.
var boundFloor = map[string]float64{"setup_s": 0.02}

// verdict applies the claim rule for a small, noisy machine to one
// workload × metric: at least ten pairs; improved when the change wins
// at least nine tenths of the pairs (ties count for neither) and the
// medians differ by more than the parent's interquartile range;
// regressed by the mirror rule, or when the change's median is worse
// than the parent's by more than the metric's bound (a share of the
// parent's median, and at least floor); unresolved when the parent's
// spread exceeds that, unless every change run beats every parent run;
// unchanged otherwise. It also returns the change's wins.
func verdict(p, c []float64, lowerBetter bool, bound *float64, floor float64) (string, int) {
	gain := func(parent, change float64) float64 { // > 0: the change is better
		if lowerBetter {
			return parent - change
		}
		return change - parent
	}
	wins, losses := 0, 0
	for i := range p {
		switch g := gain(p[i], c[i]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	n := len(p)
	if n < 10 {
		return "unresolved", wins
	}
	q := quartiles(p)
	iqr := q[2] - q[0]
	g := gain(median(p), median(c))
	switch {
	case 10*wins >= 9*n && g > iqr:
		return "improved", wins
	case 10*losses >= 9*n && -g > iqr:
		return "regressed", wins
	case bound == nil:
		return "unchanged", wins
	}
	limit := max(*bound*math.Abs(median(p)), floor)
	allBetter := true
	for _, x := range p {
		for _, y := range c {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case iqr > limit && !allBetter:
		return "unresolved", wins
	case -g > limit:
		return "regressed", wins
	}
	return "unchanged", wins
}

func runCompare(root, parentPath, changePath string, w io.Writer) error {
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	parent, skipP, err := readLog(parentPath)
	if err != nil {
		return err
	}
	change, skipC, err := readLog(changePath)
	if err != nil {
		return err
	}
	if skipP+skipC > 0 {
		fmt.Fprintf(w, "left out %d parent and %d change runs that failed their checks\n", skipP, skipC)
	}
	var names []string
	seen := map[string]bool{}
	for _, r := range parent {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	// The reported metrics have no bound: only the pairing rule judges them.
	all := append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...)
	for _, d := range reported {
		all = append(all, specMetric{Name: d.name, Unit: d.unit, Better: "lower"})
	}
	fmt.Fprintln(w, "workload metric verdict pairs wins parent_median [q1 q3] change_median [q1 q3] unit")
	for _, name := range names {
		pairs := pairRuns(parent, change, name)
		for _, m := range all {
			var p, c []float64
			for _, pr := range pairs {
				a, okA := pr[0].Metrics[m.Name]
				b, okB := pr[1].Metrics[m.Name]
				if okA && okB {
					p, c = append(p, a.Value), append(c, b.Value)
				}
			}
			if len(p) == 0 {
				continue
			}
			v, wins := verdict(p, c, m.Better == "lower", m.Bound, boundFloor[m.Name])
			qp, qc := spread(p), spread(c)
			fmt.Fprintf(w, "%s %s %s %d %d %.6g [%.6g %.6g] %.6g [%.6g %.6g] %s\n",
				name, m.Name, v, len(p), wins, qp[1], qp[0], qp[2], qc[1], qc[0], qc[2], m.Unit)
		}
	}
	return nil
}

// spread is the quartiles of xs, or xs itself repeated when too short.
func spread(xs []float64) [3]float64 {
	if len(xs) < 2 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	return quartiles(xs)
}
