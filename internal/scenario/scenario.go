// Package scenario makes simulation workloads data: a Scenario is a
// serializable description of what to run — topology, protocol, adversary,
// (ρ,σ) bound, horizon, bandwidths, seeds, invariant set, and metric
// set — that
// marshals to and from JSON, validates against the component registry
// (internal/registry), and lifts to a harness.Sweep over the cartesian
// product of its axes; a one-point scenario is a one-cell sweep.
// Reproducing a figure means running a file, not editing a program.
//
// # Canonical form
//
// Load accepts a forgiving surface — each axis may be written singular
// ("protocol": {...}) or plural ("protocols": [...]), numbers may be
// scalars or lists, parameters may be omitted — and normalizes it:
// registry defaults are materialized, rationals are reduced to exact
// lowest-terms strings, and singleton axes collapse back to singular keys.
// Marshal always emits this canonical form, so Marshal∘Load is a fixed
// point on canonical files and scenario JSON can be diffed meaningfully.
//
// # Seeds
//
// A scenario's seeds are the adversaries' seeds, verbatim, as every
// sweep cell's seed is. A scenario therefore pins exact traffic: the same
// file always replays the same injections, and a one-point scenario
// reproduces precisely the run its flag-based CLI equivalent would
// execute.
package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/registry"
	"smallbuffers/internal/sim"
)

// Component names one registered component plus its parameters. Params is
// the decoded JSON object; Validate resolves it against the component's
// registry schema and rewrites it in canonical form (defaults
// materialized, rationals as exact strings).
type Component struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// Bound is the serializable (ρ,σ) demand bound: ρ travels as an exact
// rational string ("1/2"), never as a float.
type Bound struct {
	Rho   string `json:"rho"`
	Sigma int    `json:"sigma"`
}

// Shard restricts a scenario to the contiguous cell-index range
// [Offset, Offset+Count) of its sweep grid's row-major expansion (the
// global ordering contract — see harness.Cell.Index). A sharded scenario
// is the unit the distribution tier dispatches: it is a complete,
// self-describing scenario file (canonical marshal includes the shard,
// so every shard of a grid has its own distinct digest and is cached
// independently), and its cells execute with their global indices, so
// the records of disjoint shards reassemble by index into exactly the
// record set — and results digest — of the unsharded scenario.
type Shard struct {
	Offset int `json:"offset"`
	Count  int `json:"count"`
}

// Scenario is a declarative description of a simulation workload. Every
// axis is a list, and the scenario lifts to a harness.Sweep over the
// cartesian product of the axes; a scenario whose axes all have one point
// (IsSingle) is a one-cell sweep.
//
// A scenario is compiled once, by Parse or by the first Validate: every
// component's registry entry and resolved params, its bounds and its grid
// size are kept, and its canonical bytes and digest are kept once first
// asked for. Everything after that (Sweep, Marshal, Digest, GridSize,
// CellWeights, CellBounds, CellFloors, Note, RunOne, Slice) reads the
// compiled form, so the exported fields are read-only once the scenario
// is compiled.
type Scenario struct {
	// Name and Doc label the scenario in reports and corpora.
	Name string
	Doc  string

	// Topologies is empty exactly when the adversary is self-hosting
	// (the lower-bound construction dictates its own path).
	Topologies  []Component
	Protocols   []Component
	Adversaries []Component
	Bounds      []Bound
	// Rounds is empty exactly when the adversary is self-hosting.
	Rounds []int
	// Bandwidths imposes uniform link bandwidths; empty means as built
	// (the paper's B = 1).
	Bandwidths []int
	// Seeds are the adversary seeds, verbatim; empty normalizes to {1}.
	Seeds []int64
	// Verify re-checks every injection against the declared (ρ,σ) bound.
	Verify bool
	// Invariants are per-round predicates resolved by name (e.g.
	// "max-load" with a bound parameter); a violation aborts the run.
	Invariants []Component
	// Metrics selects the measurement collectors by registry name; every
	// run of the scenario (each sweep cell) gets fresh instances and
	// reports their summaries in its result records. Empty means the
	// default {max_load, latency} set.
	Metrics []Component
	// Faults is a sweep axis of fault models by registry name ("drop",
	// "link_flap", "node_crash"); each cell runs under one entry's model,
	// freshly built and bound to the cell's topology and seed. Empty means
	// loss-free — byte-identical to the pre-fault behaviour.
	Faults []Component
	// Shard, when set, restricts execution to a contiguous cell-index
	// range of the grid (see Shard). Nil means the whole grid; scenarios
	// without a shard marshal byte-identically to the pre-shard schema.
	Shard *Shard

	comp  *compiled  // set by Validate; shared with the scenario's slices
	canon *canonical // this scenario's own canonical bytes and digest
}

// compiled is a scenario as Validate compiled it. It never changes, and a
// shard does not change it, so a scenario's slices share it.
type compiled struct {
	topologies  []part[registry.Topology]
	builds      []func() (*network.Network, error) // each topology's, through its memo key
	protocols   []part[registry.Protocol]
	adversaries []part[registry.Adversary]
	invariants  []part[registry.Invariant]
	metrics     []part[registry.Metric]
	faults      []part[registry.Fault]
	bounds      []adversary.Bound
	selfHosting bool
	grid        int
}

// part is one compiled component: its registry entry, its resolved
// params and, on the axes that name cells, its label.
type part[E any] struct {
	entry  E
	params registry.Params
	label  string
}

// canonical is a scenario's canonical form and its digest, made on first
// use.
type canonical struct {
	once   sync.Once
	data   []byte
	digest string
	err    error
}

// scenarioJSON is the wire form: each axis has a singular and a plural
// key. Load accepts either (but not both); Marshal writes the singular
// key for singleton axes.
type scenarioJSON struct {
	Name        string          `json:"name,omitempty"`
	Doc         string          `json:"doc,omitempty"`
	Topology    json.RawMessage `json:"topology,omitempty"`
	Topologies  json.RawMessage `json:"topologies,omitempty"`
	Protocol    json.RawMessage `json:"protocol,omitempty"`
	Protocols   json.RawMessage `json:"protocols,omitempty"`
	Adversary   json.RawMessage `json:"adversary,omitempty"`
	Adversaries json.RawMessage `json:"adversaries,omitempty"`
	Bound       json.RawMessage `json:"bound,omitempty"`
	Bounds      json.RawMessage `json:"bounds,omitempty"`
	Rounds      json.RawMessage `json:"rounds,omitempty"`
	Bandwidth   json.RawMessage `json:"bandwidth,omitempty"`
	Bandwidths  json.RawMessage `json:"bandwidths,omitempty"`
	Seed        json.RawMessage `json:"seed,omitempty"`
	Seeds       json.RawMessage `json:"seeds,omitempty"`
	Verify      bool            `json:"verify,omitempty"`
	Invariant   json.RawMessage `json:"invariant,omitempty"`
	Invariants  json.RawMessage `json:"invariants,omitempty"`
	Metric      json.RawMessage `json:"metric,omitempty"`
	Metrics     json.RawMessage `json:"metrics,omitempty"`
	Fault       json.RawMessage `json:"fault,omitempty"`
	Faults      json.RawMessage `json:"faults,omitempty"`
	Shard       *Shard          `json:"shard,omitempty"`
}

// Parse decodes a scenario from JSON bytes and compiles it (see
// Validate).
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w scenarioJSON
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc := &Scenario{Name: w.Name, Doc: w.Doc, Verify: w.Verify, Shard: w.Shard}
	var err error
	if sc.Topologies, err = axisList[Component]("topology", w.Topology, w.Topologies); err != nil {
		return nil, err
	}
	if sc.Protocols, err = axisList[Component]("protocol", w.Protocol, w.Protocols); err != nil {
		return nil, err
	}
	if sc.Adversaries, err = axisList[Component]("adversary", w.Adversary, w.Adversaries); err != nil {
		return nil, err
	}
	if sc.Bounds, err = axisList[Bound]("bound", w.Bound, w.Bounds); err != nil {
		return nil, err
	}
	if sc.Rounds, err = axisList[int]("rounds", nil, w.Rounds); err != nil {
		return nil, err
	}
	if sc.Bandwidths, err = axisList[int]("bandwidth", w.Bandwidth, w.Bandwidths); err != nil {
		return nil, err
	}
	if sc.Seeds, err = axisList[int64]("seed", w.Seed, w.Seeds); err != nil {
		return nil, err
	}
	if sc.Invariants, err = axisList[Component]("invariant", w.Invariant, w.Invariants); err != nil {
		return nil, err
	}
	if sc.Metrics, err = axisList[Component]("metric", w.Metric, w.Metrics); err != nil {
		return nil, err
	}
	if sc.Faults, err = axisList[Component]("fault", w.Fault, w.Faults); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// axisList decodes one axis from its singular and plural raw values: the
// plural may be a JSON array or a bare value, the singular must be a bare
// value, and setting both is an error.
func axisList[T any](key string, singular, plural json.RawMessage) ([]T, error) {
	if singular != nil && plural != nil {
		return nil, fmt.Errorf("scenario: both %q and %q set; use one", key, key+"s")
	}
	raw := plural
	if raw == nil {
		raw = singular
	}
	if raw == nil {
		return nil, nil
	}
	var list []T
	if err := json.Unmarshal(raw, &list); err == nil {
		return list, nil
	}
	var one T
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, fmt.Errorf("scenario: bad %q: %w", key, err)
	}
	return []T{one}, nil
}

// Load decodes and validates a scenario from r.
func Load(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// LoadFile decodes and validates the scenario file at path ("-" reads
// standard input).
func LoadFile(path string) (*Scenario, error) {
	if path == "-" {
		return Load(os.Stdin)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Marshal renders the canonical JSON form (indented, trailing newline):
// singleton axes collapse to singular keys, parameters carry materialized
// defaults, rationals are exact lowest-terms strings. Marshal validates
// first, so the output is always loadable, and Marshal∘Load is a fixed
// point on its own output. The bytes are made once and kept, together
// with the digest, and shared: callers must not modify them.
func (sc *Scenario) Marshal() ([]byte, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	c := sc.canon
	c.once.Do(func() {
		if c.data, c.err = sc.encode(); c.err == nil {
			sum := sha256.Sum256(c.data)
			c.digest = DigestPrefix + hex.EncodeToString(sum[:])
		}
	})
	return c.data, c.err
}

// encode renders the compiled scenario's canonical form.
func (sc *Scenario) encode() ([]byte, error) {
	w := scenarioJSON{Name: sc.Name, Doc: sc.Doc, Verify: sc.Verify, Shard: sc.Shard}
	var err error
	if w.Topology, w.Topologies, err = axisJSON(sc.Topologies); err != nil {
		return nil, err
	}
	if w.Protocol, w.Protocols, err = axisJSON(sc.Protocols); err != nil {
		return nil, err
	}
	if w.Adversary, w.Adversaries, err = axisJSON(sc.Adversaries); err != nil {
		return nil, err
	}
	if w.Bound, w.Bounds, err = axisJSON(sc.Bounds); err != nil {
		return nil, err
	}
	// "rounds" is its own singular: a scalar when the axis has one point.
	switch len(sc.Rounds) {
	case 0:
	case 1:
		w.Rounds, err = json.Marshal(sc.Rounds[0])
	default:
		w.Rounds, err = json.Marshal(sc.Rounds)
	}
	if err != nil {
		return nil, err
	}
	if w.Bandwidth, w.Bandwidths, err = axisJSON(sc.Bandwidths); err != nil {
		return nil, err
	}
	if w.Seed, w.Seeds, err = axisJSON(sc.Seeds); err != nil {
		return nil, err
	}
	if len(sc.Invariants) > 0 { // invariants always marshal as a list
		if w.Invariants, err = json.Marshal(sc.Invariants); err != nil {
			return nil, err
		}
	}
	if len(sc.Metrics) > 0 { // metrics always marshal as a list
		if w.Metrics, err = json.Marshal(sc.Metrics); err != nil {
			return nil, err
		}
	}
	if w.Fault, w.Faults, err = axisJSON(sc.Faults); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(w); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return buf.Bytes(), nil
}

// axisJSON renders a list as (singular, plural) raw values: singleton
// lists fill the singular slot, longer lists the plural one.
func axisJSON[T any](list []T) (json.RawMessage, json.RawMessage, error) {
	switch len(list) {
	case 0:
		return nil, nil, nil
	case 1:
		raw, err := json.Marshal(list[0])
		return raw, nil, err
	default:
		raw, err := json.Marshal(list)
		return nil, raw, err
	}
}

// Validate checks the scenario against the registry, normalizes it in
// place and compiles it: component parameters are resolved (unknown names
// and parameters fail with suggestions) and rewritten canonically,
// rationals are reduced, and defaulted axes (seeds) are materialized. A
// rounds entry above maxRounds, a grid of more than maxGridCells cells,
// and a shard reaching outside the grid are rejected. Validate is
// idempotent: once it succeeds, the scenario is compiled and later calls
// return at once.
func (sc *Scenario) Validate() error {
	if sc.comp != nil {
		return nil
	}
	if len(sc.Protocols) == 0 {
		return fmt.Errorf("scenario: no protocol")
	}
	if len(sc.Adversaries) == 0 {
		return fmt.Errorf("scenario: no adversary")
	}
	if len(sc.Bounds) == 0 {
		return fmt.Errorf("scenario: no bound")
	}

	selfHosting, err := sc.selfHosting()
	if err != nil {
		return err
	}
	if selfHosting {
		if len(sc.Adversaries) != 1 {
			return fmt.Errorf("scenario: a self-hosting adversary must be the only adversary")
		}
		if len(sc.Topologies) != 0 {
			return fmt.Errorf("scenario: adversary %q dictates its own topology; drop the topology axis", sc.Adversaries[0].Name)
		}
		if len(sc.Rounds) != 0 {
			return fmt.Errorf("scenario: adversary %q dictates its own horizon; drop rounds", sc.Adversaries[0].Name)
		}
		if len(sc.Bounds) != 1 {
			return fmt.Errorf("scenario: a self-hosting adversary needs exactly one bound")
		}
		if len(sc.Seeds) > 1 {
			return fmt.Errorf("scenario: adversary %q is deterministic; a seeds axis would run identical cells — drop seeds", sc.Adversaries[0].Name)
		}
	} else {
		if len(sc.Topologies) == 0 {
			return fmt.Errorf("scenario: no topology")
		}
		if len(sc.Rounds) == 0 {
			return fmt.Errorf("scenario: no rounds")
		}
	}
	for _, r := range sc.Rounds {
		if r < 0 {
			return fmt.Errorf("scenario: negative rounds %d", r)
		}
		if r > maxRounds {
			return fmt.Errorf("scenario: rounds %d exceeds the limit of %d rounds per cell", r, maxRounds)
		}
	}
	for _, b := range sc.Bandwidths {
		if b < 1 {
			return fmt.Errorf("scenario: bandwidth %d < 1", b)
		}
	}
	if len(sc.Seeds) == 0 {
		sc.Seeds = []int64{1}
	}

	// Resolve every component against its registry schema and rewrite the
	// parameters canonically.
	c := &compiled{selfHosting: selfHosting}
	if c.topologies, err = compileAxis("topology", sc.Topologies, registry.LookupTopology,
		func(e registry.Topology) registry.Schema { return e.Params }); err != nil {
		return err
	}
	for i, tp := range c.topologies {
		build, err := registry.TopologyBuilder(tp.entry.Name, tp.params, sc.Topologies[i].Params)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		c.builds = append(c.builds, build)
	}
	if c.protocols, err = compileAxis("protocol", sc.Protocols, registry.LookupProtocol,
		func(e registry.Protocol) registry.Schema { return e.Params }); err != nil {
		return err
	}
	if c.adversaries, err = compileAxis("adversary", sc.Adversaries, registry.LookupAdversary,
		func(e registry.Adversary) registry.Schema { return e.Params }); err != nil {
		return err
	}
	if c.invariants, err = compileAxis("invariant", sc.Invariants, registry.LookupInvariant,
		func(e registry.Invariant) registry.Schema { return e.Params }); err != nil {
		return err
	}
	if c.metrics, err = compileAxis("metric", sc.Metrics, registry.LookupMetric,
		func(e registry.Metric) registry.Schema { return e.Params }); err != nil {
		return err
	}
	if c.faults, err = compileAxis("fault", sc.Faults, registry.LookupFault,
		func(e registry.Fault) registry.Schema { return e.Params }); err != nil {
		return err
	}
	// Metric names must be unique — summaries key on the collector name,
	// so two entries of the same metric would silently shadow each other.
	seenMetrics := map[string]bool{}
	for _, m := range sc.Metrics {
		if seenMetrics[m.Name] {
			return fmt.Errorf("scenario: duplicate metric %q", m.Name)
		}
		seenMetrics[m.Name] = true
	}

	// Canonicalize bounds: exact, reduced, and within the rate and burst
	// limits every adversary accepts (adversary.Bound.Check).
	for i, b := range sc.Bounds {
		rho, err := rat.Parse(b.Rho)
		if err != nil {
			return fmt.Errorf("scenario: bound %d: bad rho: %w", i, err)
		}
		bound := adversary.Bound{Rho: rho, Sigma: b.Sigma}
		if err := bound.Check(); err != nil {
			return fmt.Errorf("scenario: bound %d: %w", i, err)
		}
		sc.Bounds[i].Rho = rho.String()
		c.bounds = append(c.bounds, bound)
	}

	// Axis entries must be unique — on every axis: duplicate cells would
	// silently re-run the same point and double-weight it in aggregates.
	// Axes check in a fixed order (a map literal here would pick which
	// duplicate gets reported nondeterministically). Labeling a cell axis
	// also keeps each entry's label for Sweep.
	if err := labelAxis("topology", c.topologies, sc.Topologies); err != nil {
		return err
	}
	if err := labelAxis("protocol", c.protocols, sc.Protocols); err != nil {
		return err
	}
	if err := labelAxis("adversary", c.adversaries, sc.Adversaries); err != nil {
		return err
	}
	if err := labelAxis("fault", c.faults, sc.Faults); err != nil {
		return err
	}
	for _, axis := range []struct {
		name string
		vals []int
	}{
		{"rounds", sc.Rounds}, {"bandwidths", sc.Bandwidths},
	} {
		seen := map[int]bool{}
		for _, v := range axis.vals {
			if seen[v] {
				return fmt.Errorf("scenario: duplicate %s entry %d", axis.name, v)
			}
			seen[v] = true
		}
	}
	seenSeeds := map[int64]bool{}
	for _, s := range sc.Seeds {
		if seenSeeds[s] {
			return fmt.Errorf("scenario: duplicate seed %d", s)
		}
		seenSeeds[s] = true
	}
	// Bounds compare after ρ canonicalization ("2/4" and "1/2" are the
	// same point).
	seenBounds := map[Bound]bool{}
	for _, b := range sc.Bounds {
		if seenBounds[b] {
			return fmt.Errorf("scenario: duplicate bound (ρ=%s, σ=%d)", b.Rho, b.Sigma)
		}
		seenBounds[b] = true
	}

	c.grid = sc.gridSize()
	if c.grid > maxGridCells {
		return fmt.Errorf("scenario: the grid has more than %d cells", maxGridCells)
	}
	// A shard must name a non-empty range inside the grid; validating it
	// here means a sharded scenario file is rejected at load time when
	// its range cannot exist, not when a remote daemon tries to run it.
	if sh := sc.Shard; sh != nil {
		if err := checkShard(sh.Offset, sh.Count, c.grid); err != nil {
			return err
		}
	}

	sc.comp, sc.canon = c, new(canonical)
	return nil
}

// compileAxis resolves each component of one axis against its registry
// entry's schema and rewrites its params canonically.
func compileAxis[E any](axis string, comps []Component, lookup func(string) (E, error), schema func(E) registry.Schema) ([]part[E], error) {
	parts := make([]part[E], len(comps))
	for i, c := range comps {
		e, err := lookup(c.Name)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		p, err := schema(e).Resolve(c.Params)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s %q: %w", axis, c.Name, err)
		}
		comps[i].Params = p.JSONMap()
		parts[i] = part[E]{entry: e, params: p}
	}
	return parts, nil
}

// labelAxis labels each compiled entry of a cell axis and rejects a label
// the axis already has.
func labelAxis[E any](axis string, parts []part[E], comps []Component) error {
	seen := make(map[string]bool, len(comps))
	for i, c := range comps {
		l := c.label()
		if seen[l] {
			return fmt.Errorf("scenario: duplicate %s %s", axis, l)
		}
		seen[l], parts[i].label = true, l
	}
	return nil
}

// maxRounds bounds a cell's rounds: a run's series, and a crafted
// adversary's schedule past its presized 2^16 rounds, grow with them.
// Validate checks every declared rounds entry; Sweep checks the horizon a
// self-hosting adversary dictates, once it is prepared.
const maxRounds = 1 << 24

// maxGridCells bounds a grid's row-major expansion. Every run, sharded
// or not, expands its whole grid to index its cells, so a larger grid is
// rejected when it is validated rather than when a daemon's worker
// expands it.
const maxGridCells = 1 << 24

// gridSize computes the row-major grid size from the axis lengths;
// optional axes count as one point (the harness expands them the same
// way). A grid past maxGridCells reads as maxGridCells+1, so the product
// never overflows. Callers must have materialized defaulted axes
// (Validate does).
func (sc *Scenario) gridSize() int {
	size := 1
	for _, n := range [...]int{
		len(sc.Topologies), len(sc.Protocols), len(sc.Adversaries), len(sc.Bounds),
		len(sc.Bandwidths), len(sc.Faults), len(sc.Seeds), len(sc.Rounds),
	} {
		if n == 0 {
			continue
		}
		if size > maxGridCells/n {
			return maxGridCells + 1
		}
		size *= n
	}
	return size
}

// checkShard rejects a shard [offset, offset+count) that is empty or
// reaches past a total-cell grid, comparing without the sum, which can
// overflow.
func checkShard(offset, count, total int) error {
	if offset < 0 || count < 1 {
		return fmt.Errorf("scenario: shard needs offset ≥ 0 and count ≥ 1, got [%d,+%d)", offset, count)
	}
	if count > total || offset > total-count {
		return fmt.Errorf("scenario: shard [%d,+%d) exceeds the %d-cell grid", offset, count, total)
	}
	return nil
}

// GridSize returns the number of cells in the scenario's sweep grid —
// the size of the row-major expansion Sweep executes. The shard does not
// change it: a shard restricts which cells run, never the grid they are
// indexed against.
func (sc *Scenario) GridSize() (int, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	return sc.comp.grid, nil
}

// CellWeights returns per-cell cost weights for the scenario's grid —
// one entry per cell of the row-major expansion, the cell's topology
// node count — the input to size-aware partitioning
// (harness.PartitionRangesWeighted): a 4096-node cell costs what it
// costs wherever it lands, so shards should balance total node count,
// not cell count. Topology is the grid's outermost axis, so each
// topology's weight fills a contiguous block of gridSize/len(topologies)
// cells; each topology's network comes from the registry's memo, which
// the grid's cells then share. Self-hosting scenarios carry a single
// construction-dictated topology, so their weights are uniform (weight 1
// — a weighted partition of uniform weights is the plain one). Weights
// feed work distribution only; they never change what any cell
// computes, so result digests are independent of them.
func (sc *Scenario) CellWeights() ([]int, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	c := sc.comp
	weights := make([]int, c.grid)
	for i := range weights {
		weights[i] = 1
	}
	for t, tp := range c.topologies {
		nw, err := c.builds[t]()
		if err != nil {
			return nil, fmt.Errorf("scenario: topology %s: %w", tp.label, err)
		}
		block := c.grid / len(c.topologies)
		for i := t * block; i < (t+1)*block; i++ {
			weights[i] = max(nw.Len(), 1)
		}
	}
	return weights, nil
}

// Slice returns a copy of the scenario restricted to the cell-index
// range [offset, offset+count) — the sub-scenario a coordinator
// dispatches as one shard. The copy is a complete scenario: it marshals
// canonically (so Marshal∘Load stays a fixed point and its digest is
// distinct from the parent's and from every other shard's), and running
// it executes exactly the named cells with their global indices.
// Slicing an already-sharded scenario is an error: shard ranges index
// the full grid, so nesting would silently re-base them.
func (sc *Scenario) Slice(offset, count int) (*Scenario, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Shard != nil {
		return nil, fmt.Errorf("scenario: %s is already sharded (%+v); slice the unsharded parent", sc.label(), *sc.Shard)
	}
	// The copy shares the parent's compiled form, which a shard does not
	// change, so only the shard range needs checking, and Slice is safe to
	// call concurrently. Its canonical bytes and digest are its own.
	if err := checkShard(offset, count, sc.comp.grid); err != nil {
		return nil, err
	}
	out := *sc
	out.Shard, out.canon = &Shard{Offset: offset, Count: count}, new(canonical)
	return &out, nil
}

// label renders the component for axis names and error messages:
// "path(n=16)"; parameterless components are just the name.
func (c Component) label() string {
	if len(c.Params) == 0 {
		return c.Name
	}
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, c.Params[k]))
	}
	return c.Name + "(" + strings.Join(parts, ",") + ")"
}

// selfHosting reports whether the scenario's (first) adversary dictates
// its own topology and horizon.
func (sc *Scenario) selfHosting() (bool, error) {
	for _, a := range sc.Adversaries {
		e, err := registry.LookupAdversary(a.Name)
		if err != nil {
			return false, fmt.Errorf("scenario: %w", err)
		}
		if e.SelfHosting() {
			return true, nil
		}
	}
	return false, nil
}

// IsSingle reports whether every axis has at most one point, i.e. the
// scenario describes one run rather than a sweep grid; the CLIs print a
// one-run report for it. A sharded scenario is never single: it names
// part of a grid, whose cells keep their global indices.
func (sc *Scenario) IsSingle() bool {
	return sc.Shard == nil &&
		len(sc.Topologies) <= 1 && len(sc.Protocols) <= 1 && len(sc.Adversaries) <= 1 &&
		len(sc.Bounds) <= 1 && len(sc.Rounds) <= 1 && len(sc.Bandwidths) <= 1 && len(sc.Seeds) <= 1 &&
		len(sc.Faults) <= 1
}

// single validates the scenario and rejects a grid: Note and RunOne
// describe one run.
func (sc *Scenario) single() error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if !sc.IsSingle() {
		return fmt.Errorf("scenario: %s describes a grid (list-valued axes or a shard), not one run", sc.label())
	}
	return nil
}

// Note returns the paper annotation of a one-point scenario's report: a
// self-hosting adversary's own note (the Theorem 5.1 floor), else the
// protocol's Note with the value of its bound for this run ("Proposition
// 3.1: max load ≤ 2+σ = 5").
func (sc *Scenario) Note() (string, error) {
	if err := sc.single(); err != nil {
		return "", err
	}
	c := sc.comp
	if c.selfHosting {
		adv := c.adversaries[0]
		prep, err := adv.entry.Prepare(c.bounds[0], adv.params)
		if err != nil {
			return "", fmt.Errorf("scenario: adversary %q: %w", adv.entry.Name, err)
		}
		return prep.Note, nil
	}
	proto := c.protocols[0].entry
	bounds, err := sc.CellBounds()
	if err != nil {
		return "", err
	}
	if b, ok := bounds[0]; ok {
		return fmt.Sprintf("%s = %d", proto.Note, b), nil
	}
	if proto.Bound != nil {
		return proto.Note + " (hypotheses not met)", nil
	}
	return proto.Note, nil
}

// CellBounds returns the paper bound on max load of every cell that has
// one, keyed by cell index: the bound the cell's protocol declares
// (registry.Protocol.Bound), evaluated on the cell's topology and (ρ,σ)
// bound and on the destinations its adversary hints, as the engine hands
// them to Attach. Cells outside the theorem's hypotheses, faulted cells,
// cells that fail to build and every cell of a self-hosting adversary get
// none (a self-hosting adversary declares a floor instead: CellFloors). A
// sharded scenario covers its shard's cells.
func (sc *Scenario) CellBounds() (map[int]int, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	out := map[int]int{}
	if sc.comp.selfHosting {
		return out, nil
	}
	sw, err := sc.Sweep()
	if err != nil {
		return nil, err
	}
	protos := make(map[string]part[registry.Protocol], len(sc.comp.protocols))
	for _, p := range sc.comp.protocols {
		protos[p.label] = p
	}
	cells, err := sw.CellsToRun()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		pr := protos[c.Protocol]
		if pr.entry.Bound == nil || c.Faults != "" {
			continue
		}
		nw, _, adv, err := sw.Build(c)
		if err != nil {
			continue // the cell's run reports the error
		}
		var dests []network.NodeID
		if h, ok := adv.(adversary.DestinationHinter); ok {
			dests = h.Destinations()
		}
		if b, ok := pr.entry.Bound(pr.params, nw, c.Bound, dests); ok {
			out[c.Index] = b
		}
	}
	return out, nil
}

// CellFloors returns the max load every cell of a self-hosting adversary
// must reach, keyed by cell index: the floor its construction declares
// (registry.Prepared.Floor). Cells under a fault model or on links of
// bandwidth above 1 get none, since the construction forces its floor on
// unit, loss-free links, and neither does any cell of a scenario whose
// adversary is not self-hosting. A sharded scenario covers its shard's
// cells.
func (sc *Scenario) CellFloors() (map[int]int, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	out := map[int]int{}
	c := sc.comp
	if !c.selfHosting {
		return out, nil
	}
	a := c.adversaries[0]
	prep, err := a.entry.Prepare(c.bounds[0], a.params)
	if err != nil {
		return nil, fmt.Errorf("scenario: adversary %q: %w", a.entry.Name, err)
	}
	if prep.Floor <= 0 {
		return out, nil
	}
	sw, err := sc.Sweep()
	if err != nil {
		return nil, err
	}
	cells, err := sw.CellsToRun()
	if err != nil {
		return nil, err
	}
	for _, cell := range cells {
		if cell.Faults == "" && cell.Bandwidth <= 1 {
			out[cell.Index] = prep.Floor
		}
	}
	return out, nil
}

// RunOne runs a one-point scenario as its one-cell sweep with obs
// attached, and returns the cell, its result and the network it ran on.
func (sc *Scenario) RunOne(ctx context.Context, obs ...metrics.Observer) (harness.Cell, sim.Result, *network.Network, error) {
	if err := sc.single(); err != nil {
		return harness.Cell{}, sim.Result{}, nil, err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return harness.Cell{}, sim.Result{}, nil, err
	}
	var nw *network.Network
	sw.Observers = func(_ harness.Cell, n *network.Network) []sim.Observer {
		nw = n
		return obs
	}
	agg, err := sw.Run(ctx)
	if err != nil {
		return harness.Cell{}, sim.Result{}, nil, err
	}
	cr := agg.Cells[0]
	return cr.Cell, cr.Result, nw, cr.Err
}

// buildInvariants materializes the scenario's invariant set against a
// built topology.
func (sc *Scenario) buildInvariants(nw *network.Network) ([]sim.Invariant, error) {
	out := make([]sim.Invariant, 0, len(sc.comp.invariants))
	for _, p := range sc.comp.invariants {
		inv, err := p.entry.Build(nw, p.params)
		if err != nil {
			return nil, fmt.Errorf("scenario: invariant %q: %w", p.entry.Name, err)
		}
		out = append(out, inv)
	}
	return out, nil
}

// buildMetrics materializes fresh collector instances from the
// scenario's metric set, sized for a run of rounds rounds. Fresh per call
// — collectors are stateful and single-run, so every sweep cell rebuilds
// its own.
func (sc *Scenario) buildMetrics(rounds int) ([]metrics.Collector, error) {
	out := make([]metrics.Collector, 0, len(sc.comp.metrics))
	for _, p := range sc.comp.metrics {
		col, err := p.entry.Build(p.params, rounds)
		if err != nil {
			return nil, fmt.Errorf("scenario: metric %q: %w", p.entry.Name, err)
		}
		out = append(out, col)
	}
	return out, nil
}

// buildFault materializes one fault-axis entry: a fresh model built from
// its registry entry and bound (Reset) to the given topology and seed.
// Fresh per call — fault schedules are keyed off the bound seed, so every
// sweep cell rebuilds its own.
func buildFault(p part[registry.Fault], nw *network.Network, seed int64) (faults.Model, error) {
	m, err := p.entry.Build(p.params)
	if err != nil {
		return nil, fmt.Errorf("scenario: fault %q: %w", p.entry.Name, err)
	}
	if err := m.Reset(nw, seed); err != nil {
		return nil, fmt.Errorf("scenario: fault %q: %w", p.entry.Name, err)
	}
	return m, nil
}

// Sweep lifts the scenario to a harness.Sweep over the cartesian product
// of its axes, from its compiled form. Seeds reach the adversaries
// verbatim, so a one-point scenario's one cell is exactly the run its
// flag-based CLI equivalent describes. A self-hosting adversary whose
// horizon exceeds maxRounds is rejected here.
func (sc *Scenario) Sweep() (*harness.Sweep, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	c := sc.comp
	sw := &harness.Sweep{
		Seeds:           sc.Seeds,
		Rounds:          sc.Rounds,
		Bandwidths:      sc.Bandwidths,
		Bounds:          c.bounds,
		VerifyAdversary: sc.Verify,
	}
	if sc.Shard != nil {
		sw.ShardOffset = sc.Shard.Offset
		sw.ShardCount = sc.Shard.Count
	}
	for _, p := range c.protocols {
		sw.Protocols = append(sw.Protocols, harness.ProtocolSpec{
			Name: p.label,
			New:  func() (sim.Protocol, error) { return p.entry.Build(p.params) },
		})
	}

	if c.selfHosting {
		// The construction dictates topology and horizon: prepare once to
		// size the grid, and have each cell re-prepare a fresh pattern.
		a := c.adversaries[0]
		prep, err := a.entry.Prepare(c.bounds[0], a.params)
		if err != nil {
			return nil, fmt.Errorf("scenario: adversary %q: %w", a.entry.Name, err)
		}
		if prep.Rounds > maxRounds {
			return nil, fmt.Errorf("scenario: adversary %q: horizon %d exceeds the limit of %d rounds per cell", a.entry.Name, prep.Rounds, maxRounds)
		}
		// The network is immutable and every cell shares the one bound, so
		// the upfront Prepare's Net serves all cells; only the adversary is
		// stateful and must be re-prepared per cell.
		sw.Topologies = []harness.TopologySpec{{
			Name: a.label,
			New:  func() (*network.Network, error) { return prep.Net, nil },
		}}
		sw.Adversaries = []harness.AdversarySpec{{
			Name: a.label,
			New: func(_ *network.Network, b adversary.Bound, _ int64, _ int) (adversary.Adversary, error) {
				pr, err := a.entry.Prepare(b, a.params)
				if err != nil {
					return nil, err
				}
				return pr.Adversary, nil
			},
		}}
		sw.Rounds = []int{prep.Rounds}
		// The construction declares its own bound (σ = 1).
		sw.Bounds = []adversary.Bound{prep.Bound}
	} else {
		for i, t := range c.topologies {
			sw.Topologies = append(sw.Topologies, harness.TopologySpec{Name: t.label, New: c.builds[i]})
		}
		for _, a := range c.adversaries {
			sw.Adversaries = append(sw.Adversaries, harness.AdversarySpec{
				Name: a.label,
				New: func(nw *network.Network, b adversary.Bound, seed int64, rounds int) (adversary.Adversary, error) {
					return a.entry.Build(registry.AdversaryContext{Net: nw, Bound: b, Seed: seed, Rounds: rounds}, a.params)
				},
			})
		}
	}

	if len(c.invariants) > 0 {
		sw.Invariants = func(_ harness.Cell, nw *network.Network) []sim.Invariant {
			invs, err := sc.buildInvariants(nw)
			if err != nil {
				// Invariant params were validated; a build failure here is a
				// topology mismatch, surfaced as a failing invariant.
				return []sim.Invariant{func(metrics.View) error { return err }}
			}
			return invs
		}
	}
	if len(c.metrics) > 0 {
		sw.Metrics = func(cell harness.Cell, _ *network.Network) ([]metrics.Collector, error) {
			return sc.buildMetrics(cell.Rounds)
		}
	}
	for _, f := range c.faults {
		sw.Faults = append(sw.Faults, harness.FaultSpec{
			Name: f.label,
			New: func(nw *network.Network, seed int64) (faults.Model, error) {
				return buildFault(f, nw, seed)
			},
		})
	}
	return sw, nil
}

// Run executes the scenario under ctx: every cell of the (possibly
// one-point) grid, aggregated. Per-cell failures are recorded on the
// cells, not returned as the error; cancellation returns the partial
// result with the context's error.
func (sc *Scenario) Run(ctx context.Context) (*harness.SweepResult, error) {
	sw, err := sc.Sweep()
	if err != nil {
		return nil, err
	}
	return sw.Run(ctx)
}

// label names the scenario in errors.
func (sc *Scenario) label() string {
	if sc.Name != "" {
		return fmt.Sprintf("scenario %q", sc.Name)
	}
	return "scenario"
}
