// Command aqtperf is the repository's end-to-end benchmark. It drives
// four seeded workloads through the paths a user has — in-process
// scenario runs, an in-process aqtserve, and a two-daemon fleet merging
// into the result store — checks every result digest, and prints each
// metric by name with its unit. A -trace 1 run times the public entry
// points of each layer from outside and reports per-layer self time.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh                                # every workload
//	bash bench/run.sh -workload hpts-local -seed 2   # one workload
//	bash bench/run.sh -workload served-mix -trace 1  # per-layer metrics
//	bash bench/run.sh -compare parent.ndjson change.ndjson
//
// The parent process re-executes itself once per workload, sequentially,
// so each workload's peak RSS is its own; see bench/README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// pinnedFolds are the fold digests of seed 1: sha256 over every op's
// results digest, in op order. Any change to a workload's generator or
// sizes must re-pin them.
var pinnedFolds = map[string]string{
	"hpts-local":    "sha256:1034b01b4a555ac2322b9bbaa9853a9f50f4bea0d26688e7b2642ae48265e5ec",
	"bigpath-local": "sha256:be41e68ca0e13236a88738084ea1cfdf3b98cfcb8c3a0b9ec68bdc906928981f",
	"served-mix":    "sha256:e0165b7996f233a03eac1081fe8d37158f6269313b20ff319b96343b866da6d1",
	"fleet-resume":  "sha256:9bb9095c080b04dcba798e7fcd3508551cdbd9a156b72bdf029be90a27b4f73d",
}

// setupSamples is how many times set-up is measured per workload (each
// in its own process); setup_s is their median.
const setupSamples = 7

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aqtperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, hpts-local, bigpath-local, served-mix or fleet-resume")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Int("seconds", 12, "the measured phase's calibrated length in seconds; the work is fixed, so this only flags a run that strays far from it")
	traced := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default: the temp directory)")
	logPath := fs.String("o", "", "append each workload's result as one JSON line to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -o logs: aqtperf -compare parent.ndjson change.ndjson")
	child := fs.String("child", "", "internal: run in a child process (setup or run)")
	spawnNs := fs.Int64("spawn-ns", 0, "internal: the parent's clock when it started this child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "aqtperf:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "aqtperf: -compare takes two result logs")
			return 2
		}
		if err := runCompare(root, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "aqtperf:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "aqtperf: -trace takes 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "aqtperf:", err)
			return 2
		}
		selected = []workload{w}
	}
	if *child != "" {
		return runChild(ctx, root, selected[0], *seed, *child, *traced == 1, *traceOut, time.Unix(0, *spawnNs), stdout, stderr)
	}

	var results []*result
	for _, w := range selected {
		r := measureWorkload(ctx, w, *seed, *traced == 1, *traceOut, stderr)
		if r.WallS > 0 && (r.WallS > 3*float64(*seconds) || r.WallS < float64(*seconds)/3) {
			fmt.Fprintf(stderr, "aqtperf: %s: measured phase took %.1fs, far from the calibrated %ds\n", w.name, r.WallS, *seconds)
		}
		printLines(stdout, r)
		results = append(results, r)
		if *logPath != "" {
			if err := appendLog(*logPath, r); err != nil {
				fmt.Fprintln(stderr, "aqtperf:", err)
				return 1
			}
		}
	}
	doc := summaryDoc(results)
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(stderr, "aqtperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !doc.Correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the module root: the
// benchmark reads the scenario corpus from the checkout it runs in.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "testdata", "scenarios")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the repository: no go.mod with testdata/scenarios above the working directory")
		}
		dir = parent
	}
}

// --- child: one workload in its own process ---------------------------

// childResult is what a child reports to its parent on standard output.
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s,omitempty"`
	OpMs       []float64          `json:"op_ms,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Fold       string             `json:"fold,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	Mallocs    uint64             `json:"mallocs,omitempty"`
	Rounds     int                `json:"rounds,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func runChild(ctx context.Context, root string, w workload, seed int64, mode string, traced bool, traceOut string, spawned time.Time, stdout, stderr io.Writer) int {
	switch mode {
	case "setup", "run":
	default:
		fmt.Fprintf(stderr, "aqtperf: unknown child mode %q\n", mode)
		return 2
	}
	if traced && traceOut == "" {
		traceOut = filepath.Join(os.TempDir(), fmt.Sprintf("aqtperf-trace-%s-%d.json", w.name, seed))
	}
	res, err := runWorkload(ctx, root, w, seed, w.ops, mode == "setup", traced, traceOut, spawned)
	if err != nil {
		fmt.Fprintf(stderr, "aqtperf: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "aqtperf:", err)
		return 1
	}
	return 0
}

// runWorkload sets w up — generating ops requests from seed, starting
// its servers and running one warm-up op — then, unless setupOnly, runs
// the ops and checks them. started is when set-up began (the process
// start, in a child).
func runWorkload(ctx context.Context, root string, w workload, seed int64, ops int, setupOnly, traced bool, traceOut string, started time.Time) (res *childResult, err error) {
	sess, err := w.open(ctx, root, rand.New(rand.NewSource(seed)), ops, w.clients)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := sess.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	if err := sess.warmup(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res = &childResult{SetupS: time.Since(started).Seconds()}
	if setupOnly {
		return res, nil
	}
	res.Attempted = ops

	runtime.GC() // leave set-up's garbage out of the measured phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	digests := make([]string, ops)
	errs := make([]error, ops)
	traces := make([]*opTrace, ops)
	res.OpMs = make([]float64, ops)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < ops && ctx.Err() == nil; i += w.clients {
				var t *opTrace
				if traced {
					t = &opTrace{id: i}
					traces[i] = t
				}
				s := time.Now()
				digests[i], errs[i] = sess.do(ctx, i, t)
				d := time.Since(s)
				res.OpMs[i] = msOf(d)
				if t != nil {
					t.start, t.dur = s, d
				}
			}
		}()
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs

	h := sha256.New()
	for i, d := range digests {
		if errs[i] != nil {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, fmt.Sprintf("op %d: %v", i, errs[i]))
			}
			continue
		}
		fmt.Fprintln(h, d)
		n, err := sess.rounds(i)
		if err != nil {
			return nil, err
		}
		res.Rounds += n
	}
	res.Fold = "sha256:" + hex.EncodeToString(h.Sum(nil))

	if traced {
		replays, err := sess.replay(ctx)
		if err != nil {
			return nil, err
		}
		all := append(traces, replays...)
		res.Layers = layerMetrics(all)
		if err := writeTrace(traceOut, w.name, seed, start, all); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// --- parent: one child per workload ---------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome, as printed and as logged for -compare.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Fold      string                 `json:"fold,omitempty"`
	WallS     float64                `json:"-"`
	Metrics   map[string]metricValue `json:"metrics"`
	order     []string
}

func (r *result) set(d metricDef, v float64) {
	r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	r.order = append(r.order, d.name)
}

// spawnChild re-executes this binary for one workload and returns the
// child's report and its peak RSS in bytes.
func spawnChild(ctx context.Context, w workload, seed int64, mode string, traced bool, traceOut string) (*childResult, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	args = append(args, "-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s %s child: %w", w.name, mode, err)
	}
	var r childResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, 0, fmt.Errorf("%s %s child: bad report: %w", w.name, mode, err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss * 1024 // kilobytes on Linux
	}
	return &r, rss, nil
}

// measureWorkload runs one workload in child processes and assembles its
// metrics: untraced, the end-to-end set; traced, an untraced and a
// traced child and the per-layer set.
func measureWorkload(ctx context.Context, w workload, seed int64, traced bool, traceOut string, stderr io.Writer) *result {
	r := &result{Workload: w.name, Seed: seed, Trace: traced, Metrics: map[string]metricValue{}}
	fail := func(err error) *result {
		fmt.Fprintf(stderr, "aqtperf: %s: %v\n", w.name, err)
		r.Correct, r.Attempted, r.Failed = false, w.ops, w.ops
		return r
	}
	u, rss, err := spawnChild(ctx, w, seed, "run", false, "")
	if err != nil {
		return fail(err)
	}
	r.Attempted, r.Failed, r.Fold, r.WallS = u.Attempted, u.Failed, u.Fold, u.WallS
	r.Correct = u.Failed == 0
	for _, e := range u.Errors {
		fmt.Fprintf(stderr, "aqtperf: %s: %s\n", w.name, e)
	}
	if pin, ok := pinnedFolds[w.name]; ok && seed == 1 && u.Failed == 0 && u.Fold != pin {
		r.Correct = false
		fmt.Fprintf(stderr, "aqtperf: %s: fold digest %s, pinned %s\n", w.name, u.Fold, pin)
	}

	if !traced {
		setups := []float64{u.SetupS}
		for len(setups) < setupSamples {
			s, _, err := spawnChild(ctx, w, seed, "setup", false, "")
			if err != nil {
				return fail(err)
			}
			setups = append(setups, s.SetupS)
		}
		r.setEndToEnd(u, setups, rss)
		return r
	}

	t, _, err := spawnChild(ctx, w, seed, "run", true, traceOut)
	if err != nil {
		return fail(err)
	}
	if t.Fold != u.Fold || t.Failed != 0 {
		r.Correct = false
		fmt.Fprintf(stderr, "aqtperf: %s: traced fold %s (%d failed) differs from untraced %s\n", w.name, t.Fold, t.Failed, u.Fold)
	}
	r.setPerLayer(u, t)
	return r
}

// setEndToEnd sets the end-to-end metrics from an untraced child's
// report, the set-up times of every child, and the child's peak RSS.
func (r *result) setEndToEnd(u *childResult, setups []float64, rss int64) {
	q, _ := tailQuantile(len(u.OpMs))
	for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
		var v float64
		switch d.name {
		case "setup_s":
			v = median(setups)
		case "wall_s":
			v = u.WallS
		case "op_p50_ms":
			v = median(u.OpMs)
		case "op_tail_ms":
			v = quantile(u.OpMs, q)
		case "alloc_mb":
			v = float64(u.AllocBytes) / (1 << 20)
		case "max_rss_mb":
			v = float64(rss) / (1 << 20)
		case "failed_ratio":
			v = ratio(float64(u.Failed), float64(u.Attempted))
		}
		r.set(d, v)
	}
}

// setPerLayer sets the per-layer metrics from a traced child's report;
// allocation counts and the tracing overhead also need the untraced one.
func (r *result) setPerLayer(u, t *childResult) {
	for _, d := range perLayer {
		var v float64
		switch d.name {
		case "run.allocs_per_round":
			v = ratio(float64(u.Mallocs), float64(u.Rounds))
		case "run.bytes_per_round":
			v = ratio(float64(u.AllocBytes), float64(u.Rounds))
		case "trace.overhead_frac":
			v = ratio(t.WallS, u.WallS) - 1
		default:
			v = t.Layers[d.name]
		}
		r.set(d, v)
	}
}

// printLines prints one "workload metric value unit" line per metric.
func printLines(w io.Writer, r *result) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

// summary is the last line of standard output. For one workload its
// metrics carry their plain names; for several, "workload/metric". It
// holds the BENCHMARK.json metrics only.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func summaryDoc(results []*result) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, name := range r.order {
			if isReported(name) {
				continue
			}
			key := name
			if len(results) > 1 {
				key = r.Workload + "/" + name
			}
			s.Metrics[key] = r.Metrics[name]
		}
	}
	return s
}

func isReported(name string) bool {
	for _, d := range reported {
		if d.name == name {
			return true
		}
	}
	return false
}

func appendLog(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
