// Package sim implements the synchronous execution model of §2: rounds
// consisting of an injection step followed by a forwarding step, with at
// most B(v) packets forwarded over each link per round, where B(v) is the
// link's configured bandwidth (the paper's model is B ≡ 1, the topology
// default).
//
// The engine owns all buffers; protocols are centralized deciders that
// observe the full configuration through the read-only View and return a
// set of forwarding decisions. The engine validates each decision set
// against the capacity constraint (at most B(v) packets leave node v per
// round — on in-forests each node has one outgoing link), applies all moves
// simultaneously, and delivers packets that reach their destination.
//
// Buffer occupancies are sampled at the paper's measurement point, L_t:
// after the injection step and before the forwarding step, as well as after
// forwarding, and the maxima over both sample points are reported.
package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/buffer"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// View is the read-only interface protocols use to observe the
// configuration. Hooks and invariants observe the wider metrics.View,
// which adds the phased-staging count.
type View interface {
	// Round returns the current (0-based) round number.
	Round() int
	// Net returns the topology.
	Net() *network.Network
	// Packets returns the packets buffered at v in arrival order (LIFO
	// pseudo-buffer order is derived from this). The slice is shared;
	// callers must not modify it.
	Packets(v network.NodeID) []packet.Packet
	// Load returns |L(v)|, the number of packets buffered at v.
	Load(v network.NodeID) int
	// Bandwidth returns B(v), the number of packets v may forward this
	// round (the capacity of its outgoing link).
	Bandwidth(v network.NodeID) int
}

// Forward is one forwarding decision: node From sends the identified packet
// over its unique outgoing link.
type Forward struct {
	From network.NodeID
	Pkt  packet.ID
}

// Protocol is a centralized online forwarding algorithm.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Attach is called once before the run with the topology, the declared
	// demand bound, and an optional destination hint (nil means unknown).
	Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error
	// Decide returns the forwarding decisions for the current round. The
	// engine validates feasibility; an infeasible decision aborts the run
	// with an error.
	Decide(v View) ([]Forward, error)
}

// PhasedAcceptor is an optional Protocol interface. A protocol with phase
// length ℓ > 1 plays against the ℓ-reduction of the adversary
// (Definition 2.4): packets injected at round u become visible at round
// ⌈u/ℓ⌉·ℓ. The engine stages injections accordingly; staged packets are
// counted in the physical occupancy but not in the visible one.
type PhasedAcceptor interface {
	PhaseLength() int
}

// Observer receives a run's round events: the run's metric collectors
// and its WithObservers observers share these hooks and one dispatch
// list (see metrics.Observer for the per-round order). Implementations
// embed metrics.NopObserver.
type Observer = metrics.Observer

// Invariant is a per-round predicate evaluated after every hook's
// OnRoundEnd; returning an error aborts the run. Invariants power the
// bound assertions in tests and experiments.
type Invariant func(v metrics.View) error

// Result summarizes a run. The historical scalar fields remain and are
// sourced from the always-on max_load and latency collectors (see
// internal/metrics); richer measurements land in Metrics, keyed by
// collector name.
type Result struct {
	Protocol string
	Rounds   int

	// MaxLoad is the maximum visible buffer occupancy over all rounds and
	// nodes, sampled both at L_t (post-injection) and post-forwarding.
	MaxLoad int
	// MaxLoadNode and MaxLoadRound locate the first maximum.
	MaxLoadNode  network.NodeID
	MaxLoadRound int
	// MaxPhysicalLoad additionally counts packets staged by phased
	// acceptance (equals MaxLoad for unphased protocols).
	MaxPhysicalLoad int
	// PerNodeMax[v] is the maximum visible occupancy seen at v.
	PerNodeMax []int

	Injected  int
	Delivered int
	// Dropped counts packets lost in transit by the run's fault model
	// (zero for the loss-free paper model).
	Dropped int
	// Residual is Injected − Delivered − Dropped at the end of the run:
	// the packets still buffered somewhere.
	Residual int

	// MaxLatency and TotalLatency aggregate delivery times (delivery round
	// − injection round) over delivered packets.
	MaxLatency   int
	TotalLatency int

	// PerLinkForwards[v] counts packets forwarded over the link out of v
	// during the run; with the run's bandwidths it yields per-link
	// utilization (see LinkUtilization).
	PerLinkForwards []int
	// Metrics holds the distilled summaries of the run's metric
	// collectors, keyed by collector name: the spec-selected set
	// (WithMetrics), or the default {max_load, latency} pair whose
	// scalars also populate the historical fields above.
	Metrics map[string]metrics.Summary
	// linkCapacity[v] = Rounds · B(v), the link's total transmission budget,
	// captured at Reset so utilization survives the Result being detached
	// from its engine.
	linkCapacity []int
}

// LinkUtilization returns the fraction of link v's total transmission
// budget (rounds × bandwidth) actually used, in [0, 1]. ok is false for
// sinks, zero-round runs, and Results not produced by the engine (such as
// a zero Result).
func (r Result) LinkUtilization(v network.NodeID) (float64, bool) {
	if int(v) >= len(r.PerLinkForwards) || int(v) >= len(r.linkCapacity) || r.linkCapacity[v] == 0 {
		return 0, false
	}
	return float64(r.PerLinkForwards[v]) / float64(r.linkCapacity[v]), true
}

// MaxLinkUtilization returns the busiest link and its utilization, or
// ok=false when no link has a transmission budget at all (all-sink
// forests, zero-round runs, Results not produced by the engine). A run
// whose links have budget but forwarded nothing reports the first link
// at utilization 0 with ok=true.
//
// On equal utilization the lowest NodeID wins. The tie-break is part of
// the API contract — nodes are scanned in ascending order and only a
// strictly greater utilization displaces the incumbent — so on runs
// that forwarded at least one packet this names the same busiest link
// as the link_util_series collector (which reports busiest_link=-1 for
// all-idle runs instead).
func (r Result) MaxLinkUtilization() (network.NodeID, float64, bool) {
	best, arg, ok := 0.0, network.NodeID(0), false
	for v := range r.PerLinkForwards {
		if u, valid := r.LinkUtilization(network.NodeID(v)); valid && (!ok || u > best) {
			best, arg, ok = u, network.NodeID(v), true
		}
	}
	return arg, best, ok
}

// AvgLatency returns the mean delivery latency, or 0 with ok=false if
// nothing was delivered.
func (r Result) AvgLatency() (float64, bool) {
	if r.Delivered == 0 {
		return 0, false
	}
	return float64(r.TotalLatency) / float64(r.Delivered), true
}

// Engine executes runs. It implements View. An engine is reusable: after a
// run completes (or is cancelled), Reset rebinds it to a new Spec while
// retaining its buffer allocations, so sweeps can drive thousands of runs
// without churning the allocator. It can also be single-stepped with Step
// for incremental driving (debuggers, visualizers, interleaved engines).
//
// An Engine is not safe for concurrent use; run one engine per goroutine.
type Engine struct {
	spec     Spec
	buffers  []buffer.Buffer
	staged   []([]packet.Packet) // per-node staging for phased acceptance
	stagedN  int
	phaseLen int
	verifier *adversary.Verifier
	round    int
	nextID   packet.ID
	res      Result

	// hooks is every observer the engine drives this run, in dispatch
	// order: the spec-selected collectors, the internal max_load/latency
	// pair when the spec does not already carry them, then the spec's
	// observers. maxLoadC and latencyC source the historical Result
	// scalars.
	hooks    []metrics.Observer
	maxLoadC *metrics.MaxLoadCollector
	latencyC *metrics.LatencyCollector
}

var (
	_ metrics.View = (*Engine)(nil)
	// Hooks see everything protocols see.
	_ View = metrics.View(nil)
)

// NewEngine validates the spec and prepares a run.
func NewEngine(spec Spec) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset validates spec and rebinds the engine to it, discarding all state
// of the previous run. Buffer and staging storage is retained across
// resets, so repeated runs on same-sized topologies are allocation-light.
func (e *Engine) Reset(spec Spec) error {
	if spec.net == nil {
		return fmt.Errorf("sim: nil network")
	}
	if spec.protocol == nil {
		return fmt.Errorf("sim: nil protocol")
	}
	if spec.adversary == nil {
		return fmt.Errorf("sim: nil adversary")
	}
	if spec.rounds < 0 {
		return fmt.Errorf("sim: negative round count %d", spec.rounds)
	}
	phaseLen := 1
	if pa, ok := spec.protocol.(PhasedAcceptor); ok {
		phaseLen = pa.PhaseLength()
		if phaseLen < 1 {
			return fmt.Errorf("sim: protocol %q reports phase length %d < 1", spec.protocol.Name(), phaseLen)
		}
	}
	var dests []network.NodeID
	if h, ok := spec.adversary.(adversary.DestinationHinter); ok {
		dests = h.Destinations()
	}
	if err := spec.protocol.Attach(spec.net, spec.adversary.Bound(), dests); err != nil {
		return fmt.Errorf("sim: protocol attach: %w", err)
	}
	var verifier *adversary.Verifier
	if spec.verifyAdversary {
		ver, err := adversary.NewVerifier(spec.net, spec.adversary.Bound())
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		verifier = ver
	}

	n := spec.net.Len()
	if cap(e.buffers) >= n {
		e.buffers = e.buffers[:n]
		for v := range e.buffers {
			e.buffers[v].Reset()
		}
	} else {
		e.buffers = make([]buffer.Buffer, n)
	}
	if cap(e.staged) >= n {
		e.staged = e.staged[:n]
		for v := range e.staged {
			e.staged[v] = e.staged[v][:0]
		}
	} else {
		e.staged = make([][]packet.Packet, n)
	}

	e.spec = spec
	e.phaseLen = phaseLen
	e.verifier = verifier
	e.stagedN = 0
	e.round = 0
	e.nextID = 0

	// Bind the run's hooks: the spec's collectors run as-is, and the
	// engine adds internal max_load/latency collectors when the spec does
	// not already name them — the historical Result scalars are sourced
	// from those two, selected or not. Collectors are stateful and
	// single-run, so the spec must hand the engine fresh instances (the
	// scenario and harness layers always do).
	e.maxLoadC, e.latencyC = nil, nil
	e.hooks = e.hooks[:0]
	for _, c := range spec.collectors {
		e.hooks = append(e.hooks, c)
		switch x := c.(type) {
		case *metrics.MaxLoadCollector:
			if e.maxLoadC == nil {
				e.maxLoadC = x
			}
		case *metrics.LatencyCollector:
			if e.latencyC == nil {
				e.latencyC = x
			}
		}
	}
	if e.maxLoadC == nil {
		e.maxLoadC = metrics.NewMaxLoad()
		e.hooks = append(e.hooks, e.maxLoadC)
	}
	if e.latencyC == nil {
		e.latencyC = metrics.NewLatency()
		e.hooks = append(e.hooks, e.latencyC)
	}
	e.hooks = append(e.hooks, spec.observers...)

	// The link counters are handed out inside the returned Result, so
	// they cannot be recycled: fresh slices per run keep prior results
	// immutable.
	e.res = Result{
		Protocol:        spec.protocol.Name(),
		Rounds:          spec.rounds,
		PerLinkForwards: make([]int, n),
		linkCapacity:    make([]int, n),
	}
	for v := 0; v < n; v++ {
		if spec.net.Next(network.NodeID(v)) != network.None {
			e.res.linkCapacity[v] = spec.rounds * spec.net.Bandwidth(network.NodeID(v))
		}
	}
	return nil
}

// Round implements View.
func (e *Engine) Round() int { return e.round }

// Net implements View.
func (e *Engine) Net() *network.Network { return e.spec.net }

// Packets implements View.
func (e *Engine) Packets(v network.NodeID) []packet.Packet { return e.buffers[v].Packets() }

// Load implements View.
func (e *Engine) Load(v network.NodeID) int { return e.buffers[v].Len() }

// Bandwidth implements View.
func (e *Engine) Bandwidth(v network.NodeID) int { return e.spec.net.Bandwidth(v) }

// Staged returns the number of packets staged (injected but not yet
// accepted) at v. Zero for unphased protocols.
func (e *Engine) Staged(v network.NodeID) int { return len(e.staged[v]) }

// Step executes the next round and reports whether the run is complete.
// It is the incremental driving primitive underneath Run: callers that
// need to interleave engines, inspect state between rounds, or drive a
// visualizer call Step in their own loop.
func (e *Engine) Step() (done bool, err error) {
	if e.round >= e.spec.rounds {
		return true, nil
	}
	t := e.round
	if err := e.step(t); err != nil {
		return false, fmt.Errorf("round %d: %w", t, err)
	}
	e.round = t + 1
	return e.round >= e.spec.rounds, nil
}

// Result returns a snapshot of the run summary accumulated so far. After a
// completed Run it is the final summary; after a cancelled run it covers
// the rounds that executed. The snapshot is independent of the engine:
// resuming the run does not mutate previously returned Results.
//
// The historical scalar fields are sourced from the run's always-on
// max_load and latency collectors; Metrics carries the full summaries of
// the spec-selected collectors, or of that default pair.
func (e *Engine) Result() Result {
	res := e.res
	res.MaxLoad = e.maxLoadC.MaxLoad()
	res.MaxLoadNode = e.maxLoadC.MaxLoadNode()
	res.MaxLoadRound = e.maxLoadC.MaxLoadRound()
	res.MaxPhysicalLoad = e.maxLoadC.MaxPhysicalLoad()
	res.MaxLatency = e.latencyC.MaxLatency()
	res.TotalLatency = e.latencyC.TotalLatency()
	res.Residual = res.Injected - res.Delivered - res.Dropped
	res.PerNodeMax = make([]int, e.spec.net.Len())
	copy(res.PerNodeMax, e.maxLoadC.PerNodeMax())
	res.PerLinkForwards = append([]int(nil), e.res.PerLinkForwards...)
	reported := e.spec.collectors
	if len(reported) == 0 {
		reported = []metrics.Collector{e.maxLoadC, e.latencyC}
	}
	res.Metrics = make(map[string]metrics.Summary, len(reported))
	for _, c := range reported {
		res.Metrics[c.Name()] = c.Summarize()
	}
	return res
}

// Run executes the remaining rounds and returns the summary. Cancellation
// is honored between rounds: when ctx is done (or the Spec's deadline
// expires), Run stops promptly and returns the partial Result together
// with the context's error.
func (e *Engine) Run(ctx context.Context) (Result, error) {
	var deadline time.Time
	if e.spec.deadline > 0 {
		//aqtlint:allow nowallclock -- WithDeadline is explicitly wall-clock cancellation; it aborts a run, never feeds a result or digest
		deadline = time.Now().Add(e.spec.deadline)
	}
	for {
		if err := ctx.Err(); err != nil {
			return e.Result(), err
		}
		//aqtlint:allow nowallclock -- deadline check mirrors the wall-clock WithDeadline option; aborting is observable only as an error
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return e.Result(), fmt.Errorf("sim: run deadline %v exhausted at round %d: %w",
				e.spec.deadline, e.round, context.DeadlineExceeded)
		}
		done, err := e.Step()
		if err != nil {
			return e.Result(), err
		}
		if done {
			return e.Result(), nil
		}
	}
}

// step runs one full round: injection, acceptance, sampling, forwarding.
func (e *Engine) step(t int) error {

	// Injection step. Adaptive adversaries observe the previous round's
	// post-forwarding occupancies.
	var injs []packet.Injection
	if ad, ok := e.spec.adversary.(adversary.Adaptive); ok {
		injs = ad.InjectAdaptive(t, func(v network.NodeID) int { return e.buffers[v].Len() })
	} else {
		injs = e.spec.adversary.Inject(t)
	}
	if e.verifier != nil {
		if err := e.verifier.Check(t, injs); err != nil {
			return err
		}
	}
	newPkts := make([]packet.Packet, 0, len(injs))
	for _, in := range injs {
		if err := in.Validate(e.spec.net); err != nil {
			return err
		}
		p := packet.Packet{ID: e.nextID, Src: in.Src, Dst: in.Dst, Inject: t, Arrived: t}
		e.nextID++
		newPkts = append(newPkts, p)
	}
	e.res.Injected += len(newPkts)
	for _, h := range e.hooks {
		h.OnInject(t, newPkts)
	}

	// Acceptance: phased protocols see injections only at phase boundaries.
	var accepted []packet.Packet
	if e.phaseLen == 1 {
		accepted = newPkts
	} else {
		for _, p := range newPkts {
			e.staged[p.Src] = append(e.staged[p.Src], p)
			e.stagedN++
		}
		if t%e.phaseLen == 0 {
			for v := range e.staged {
				accepted = append(accepted, e.staged[v]...)
				e.staged[v] = e.staged[v][:0]
			}
			e.stagedN = 0
			// Deterministic acceptance order: by packet ID.
			sort.Slice(accepted, func(i, j int) bool { return accepted[i].ID < accepted[j].ID })
		}
	}
	for _, p := range accepted {
		p.Arrived = t
		e.buffers[p.Src].Add(p)
	}
	for _, h := range e.hooks {
		h.OnAccept(t, accepted)
	}

	// Sample L_t (post-injection, pre-forwarding).
	for _, h := range e.hooks {
		h.OnSample(t, metrics.LT, e)
	}

	// Forwarding step.
	decisions, err := e.spec.protocol.Decide(e)
	if err != nil {
		return fmt.Errorf("protocol %q: %w", e.spec.protocol.Name(), err)
	}
	moves, err := e.apply(t, decisions)
	if err != nil {
		return err
	}
	for _, h := range e.hooks {
		h.OnForward(t, moves)
	}

	// Sample post-forwarding occupancy too (receivers that did not forward
	// can peak here), then seal the round.
	for _, h := range e.hooks {
		h.OnSample(t, metrics.PostForward, e)
	}
	for _, h := range e.hooks {
		h.OnRoundEnd(t, e)
	}

	for _, inv := range e.spec.invariants {
		if err := inv(e); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
	}
	return nil
}

// apply validates and executes a decision set simultaneously. The run's
// fault model (if any) intercepts the forwarding step here: decisions
// over a downed link are validated but nullified (the packets stay
// buffered), and forwarded packets the model drops leave their buffer and
// consume the link without arriving.
func (e *Engine) apply(t int, decisions []Forward) ([]metrics.Move, error) {
	fm := e.spec.faults
	sent := make(map[network.NodeID]int, len(decisions))
	moves := make([]metrics.Move, 0, len(decisions))
	// Remove phase: validate and detach all forwarded packets first so the
	// moves are simultaneous. Validation is fault-blind — a decision must
	// be feasible against the configured bandwidths whether or not the
	// fault model then nullifies it, so protocols cannot observe faults
	// through the engine's error behavior.
	for _, d := range decisions {
		if !e.spec.net.Valid(d.From) {
			return nil, fmt.Errorf("sim: decision from invalid node %d", d.From)
		}
		if b := e.spec.net.Bandwidth(d.From); sent[d.From] >= b {
			return nil, fmt.Errorf("sim: round %d: node %d forwards %d packets but its link bandwidth is %d",
				t, d.From, sent[d.From]+1, b)
		}
		sent[d.From]++
		to := e.spec.net.Next(d.From)
		if to == network.None {
			return nil, fmt.Errorf("sim: sink node %d cannot forward", d.From)
		}
		if fm != nil && !fm.LinkUp(t, d.From) {
			// Downed link: the decision is nullified, not an error. The
			// packet must still exist (referencing a phantom packet is a
			// protocol bug regardless of link state) but stays buffered.
			if !e.buffers[d.From].Contains(d.Pkt) {
				return nil, fmt.Errorf("sim: node %d: no packet %d buffered", d.From, d.Pkt)
			}
			continue
		}
		p, err := e.buffers[d.From].Remove(d.Pkt)
		if err != nil {
			return nil, fmt.Errorf("sim: node %d: %w", d.From, err)
		}
		m := metrics.Move{Pkt: p, From: d.From, To: to}
		if fm != nil && fm.Drops(t, d.From, int(p.ID)) {
			m.Dropped = true
		} else {
			m.Delivered = to == p.Dst
		}
		moves = append(moves, m)
	}
	// Deterministic arrival order: by source node, then packet ID.
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].From != moves[j].From {
			return moves[i].From < moves[j].From
		}
		return moves[i].Pkt.ID < moves[j].Pkt.ID
	})
	// Insert phase. Latency accounting lives in the latency collector,
	// whose OnForward receives these moves after apply returns.
	for i := range moves {
		m := &moves[i]
		e.res.PerLinkForwards[m.From]++
		if m.Dropped {
			e.res.Dropped++
			continue
		}
		if m.Delivered {
			e.res.Delivered++
			continue
		}
		p := m.Pkt
		p.Arrived = t + 1 // available at the receiver from the next round
		e.buffers[m.To].Add(p)
	}
	return moves, nil
}

// Run is the primary execution entry point: build an engine from spec and
// execute it under ctx. Cancellation is honored between rounds; on
// cancellation the partial Result is returned with the context's error.
func Run(ctx context.Context, spec Spec) (Result, error) {
	e, err := NewEngine(spec)
	if err != nil {
		return Result{}, err
	}
	return e.Run(ctx)
}
