package main

import (
	"encoding/json"
	"os"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each path sees, measured untraced:
// the BENCHMARK.json set, which bounds each one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_mb", "MB"},
}

// reported are end-to-end metrics that are printed, logged and compared
// but not bounded in BENCHMARK.json. failed_ratio is 0 on every passing
// run (the result line's "failed" carries it). max_rss_mb moves in the Go
// heap's 4 MiB growth steps: on bigpath-local, whose peak is ~25 MB, one
// step more or less is 16%, and ten runs of the same code spread by up
// to a quarter of their median.
var reported = []metricDef{
	{"max_rss_mb", "MB"},
	{"failed_ratio", "ratio"},
}

// perLayer are the traced run's metrics, one group per internal module.
// A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"adversary.inject_ns_per_round", "ns"},
	{"adversary.inject_share", "ratio"},
	{"adversary.build_ms_per_cell", "ms"},
	{"core.decide_ns_per_round", "ns"},
	{"core.decide_share", "ratio"},
	{"core.attach_us_per_cell", "us"},
	{"baseline.decide_ns_per_round", "ns"},
	{"sim.self_ns_per_round", "ns"},
	{"sim.self_share", "ratio"},
	{"run.allocs_per_round", "count"},
	{"run.bytes_per_round", "B"},
	{"metrics.collect_ns_per_round", "ns"},
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_tail", "ms"},
	{"harness.build_ms_p50", "ms"},
	{"scenario.load_us_p50", "us"},
	{"scenario.digest_us_p50", "us"},
	{"service.cold_ms_p50", "ms"},
	{"service.cold_ms_tail", "ms"},
	{"service.warm_ms_p50", "ms"},
	{"service.warm_ms_tail", "ms"},
	{"service.cached_ratio", "ratio"},
	{"service.response_kb_p50", "KB"},
	{"fleet.wall_over_ideal", "ratio"},
	{"fleet.daemon_busy_frac", "ratio"},
	{"fleet.dispatches_per_op", "count"},
	{"fleet.retries_per_op", "count"},
	{"fleet.steals_per_op", "count"},
	{"store.append_us_per_cell", "us"},
	{"store.open_ms_p50", "ms"},
	{"store.digest_ms_p50", "ms"},
	{"store.bytes_per_cell", "B"},
	{"trace.overhead_frac", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tail(xs []float64) float64 {
	q, _ := tailQuantile(len(xs))
	return quantile(xs, q)
}

// layerMetrics derives the per-layer metrics from a traced run's ops
// (and the replays that attribute daemon-side simulation). A layer's
// self time is its span minus its children: the sim engine's is the
// engine span minus attach, inject, decide and collector time.
func layerMetrics(ops []*opTrace) map[string]float64 {
	var (
		rounds, cells, coreRounds, coreCells, baseRounds   int
		inject, advNew, coreDecide, coreAttach, baseDecide time.Duration
		children, collect, engine                          time.Duration
		cellMs, buildMs, parseUs, digestUs                 []float64
		coldMs, warmMs, respKB, openMs, storeDigestMs      []float64
		served, cached, fleetOps, appendCells, storeCells  int
		appendDur                                          time.Duration
		storeBytes                                         int64
		fr                                                 fleetRun
	)
	for _, op := range ops {
		for _, c := range op.cells {
			cells++
			rounds += c.rounds()
			inject += c.total[phInject]
			advNew += c.total[phAdversaryNew]
			collect += c.total[phCollect]
			children += c.total[phAttach] + c.total[phDecide] + c.total[phInject] + c.total[phCollect]
			engine += c.engine()
			switch c.protoLayer {
			case "core":
				coreCells++
				coreRounds += c.rounds()
				coreDecide += c.total[phDecide]
				coreAttach += c.total[phAttach]
			case "baseline":
				baseRounds += c.rounds()
				baseDecide += c.total[phDecide]
			}
			cellMs = append(cellMs, msOf(c.last.Sub(c.start)))
			buildMs = append(buildMs, msOf(c.build()))
		}
		for _, s := range op.spans {
			switch s.name {
			case "scenario.parse":
				parseUs = append(parseUs, float64(s.dur)/1e3/float64(s.calls))
			case "scenario.digest":
				digestUs = append(digestUs, float64(s.dur)/1e3/float64(s.calls))
			case "service.cold":
				coldMs = append(coldMs, msOf(s.dur)/float64(s.calls))
			case "service.warm":
				warmMs = append(warmMs, msOf(s.dur)/float64(s.calls))
			case "store.open":
				openMs = append(openMs, msOf(s.dur)/float64(s.calls))
			case "store.digest":
				storeDigestMs = append(storeDigestMs, msOf(s.dur)/float64(s.calls))
			case "store.append":
				appendDur += s.dur
				appendCells += s.calls
			}
		}
		for _, r := range op.responses {
			served++
			respKB = append(respKB, float64(r.bytes)/1024)
			if r.cached {
				cached++
			}
		}
		if len(op.fleet) > 0 {
			fleetOps++
		}
		for _, f := range op.fleet {
			fr.wall += f.wall
			fr.ideal += f.ideal
			fr.busy += f.busy
			fr.dispatches += f.dispatches
			fr.retries += f.retries
			fr.steals += f.steals
		}
		storeBytes += op.storeBytes
		storeCells += op.storeCells
	}
	self := engine - children
	perRound := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	return map[string]float64{
		"adversary.inject_ns_per_round": perRound(inject, rounds),
		"adversary.inject_share":        ratio(float64(inject), float64(engine)),
		"adversary.build_ms_per_cell":   ratio(msOf(advNew), float64(cells)),
		"core.decide_ns_per_round":      perRound(coreDecide, coreRounds),
		"core.decide_share":             ratio(float64(coreDecide), float64(engine)),
		"core.attach_us_per_cell":       ratio(float64(coreAttach)/1e3, float64(coreCells)),
		"baseline.decide_ns_per_round":  perRound(baseDecide, baseRounds),
		"sim.self_ns_per_round":         perRound(self, rounds),
		"sim.self_share":                ratio(float64(self), float64(engine)),
		"metrics.collect_ns_per_round":  perRound(collect, rounds),
		"harness.cell_ms_p50":           median(cellMs),
		"harness.cell_ms_tail":          tail(cellMs),
		"harness.build_ms_p50":          median(buildMs),
		"scenario.load_us_p50":          median(parseUs),
		"scenario.digest_us_p50":        median(digestUs),
		"service.cold_ms_p50":           median(coldMs),
		"service.cold_ms_tail":          tail(coldMs),
		"service.warm_ms_p50":           median(warmMs),
		"service.warm_ms_tail":          tail(warmMs),
		"service.cached_ratio":          ratio(float64(cached), float64(served)),
		"service.response_kb_p50":       median(respKB),
		"fleet.wall_over_ideal":         ratio(float64(fr.wall), float64(fr.ideal)),
		"fleet.daemon_busy_frac":        ratio(float64(fr.busy), float64(fr.wall)*fleetDaemons),
		"fleet.dispatches_per_op":       ratio(float64(fr.dispatches), float64(fleetOps)),
		"fleet.retries_per_op":          ratio(float64(fr.retries), float64(fleetOps)),
		"fleet.steals_per_op":           ratio(float64(fr.steals), float64(fleetOps)),
		"store.append_us_per_cell":      ratio(float64(appendDur)/1e3, float64(appendCells)),
		"store.open_ms_p50":             median(openMs),
		"store.digest_ms_p50":           median(storeDigestMs),
		"store.bytes_per_cell":          ratio(float64(storeBytes), float64(storeCells)),
	}
}

// spanJSON is the trace file's span: request → cell → engine → phase,
// each an aggregate (total duration, call count) so memory stays bounded.
// Every span carries its request's id (the op index). Times are
// nanoseconds from the start of the measured phase.
type spanJSON struct {
	ID       int        `json:"id"`
	Name     string     `json:"name"`
	Layer    string     `json:"layer,omitempty"`
	Label    string     `json:"label,omitempty"`
	StartNs  int64      `json:"start_ns"`
	DurNs    int64      `json:"dur_ns"`
	Calls    int        `json:"calls,omitempty"`
	Children []spanJSON `json:"children,omitempty"`
}

var phaseLayers = [nPhases]string{"network", "", "adversary", "faults", "metrics", "", "", "adversary", "metrics"}

func spansOf(op *opTrace, epoch time.Time) spanJSON {
	at := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
	req := spanJSON{ID: op.id, Name: op.kind, StartNs: at(op.start), DurNs: op.dur.Nanoseconds()}
	for _, s := range op.spans {
		req.Children = append(req.Children, spanJSON{ID: op.id, Name: s.name, Layer: s.layer, StartNs: at(s.start), DurNs: s.dur.Nanoseconds(), Calls: s.calls})
	}
	for _, c := range op.cells {
		cell := spanJSON{ID: op.id, Name: "cell", Layer: "harness", Label: c.label, StartNs: at(c.start), DurNs: c.last.Sub(c.start).Nanoseconds()}
		eng := spanJSON{ID: op.id, Name: "engine", Layer: "sim", StartNs: at(c.attach), DurNs: c.engine().Nanoseconds()}
		for p := phase(0); p < nPhases; p++ {
			if c.calls[p] == 0 {
				continue
			}
			layer := phaseLayers[p]
			if layer == "" {
				layer = c.protoLayer
			}
			s := spanJSON{ID: op.id, Name: phaseNames[p], Layer: layer, StartNs: at(c.first[p]), DurNs: c.total[p].Nanoseconds(), Calls: c.calls[p]}
			if p >= phAttach {
				eng.Children = append(eng.Children, s)
			} else {
				cell.Children = append(cell.Children, s)
			}
		}
		cell.Children = append(cell.Children, eng)
		req.Children = append(req.Children, cell)
	}
	return req
}

// writeTrace writes every request's spans to path as one JSON document.
func writeTrace(path, workload string, seed int64, epoch time.Time, ops []*opTrace) error {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Requests []spanJSON `json:"requests"`
	}{Workload: workload, Seed: seed}
	for _, op := range ops {
		doc.Requests = append(doc.Requests, spansOf(op, epoch))
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
