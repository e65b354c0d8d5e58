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
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/buffer"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// View is the read-only interface protocols use to observe the
// configuration. Hooks and invariants observe the wider metrics.View,
// which adds the phased-staging counts and packets.
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
	// Occupied returns the nodes that hold a visible packet, in ascending
	// order, so that a round costs O(occupied buffers), not O(n). Staged
	// packets (Definition 2.4) do not count. The slice is shared and stays
	// valid until the engine next changes a buffer; callers must not
	// modify it.
	Occupied() []network.NodeID
	// Accepted returns the packets that became visible this round (the
	// slice OnAccept receives), and Moved the moves of the most recent
	// forwarding step (the slice OnForward receives). During Decide at
	// round t they hold round t's acceptances and round t−1's moves (none
	// on a run's first round). Between two Decide calls the buffers change
	// by exactly these, so a protocol can keep an index current from them
	// instead of rescanning every buffer. The slices are shared and stay
	// valid until the engine's next step; callers must not modify them.
	Accepted() []packet.Packet
	Moved() []metrics.Move
}

// Forward is one forwarding decision: node From sends the identified packet
// over its unique outgoing link.
type Forward struct {
	From network.NodeID
	Pkt  packet.ID
}

// Protocol is a centralized online forwarding algorithm. An instance
// serves one run at a time: Attach starts a run and may size per-run
// scratch that Decide reuses round after round. A protocol that keeps
// state between rounds, such as an index kept current from View.Accepted
// and View.Moved, relies on Decide seeing every round of the run, in
// order, from Attach on; the engine guarantees this.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Attach is called once before the run with the topology, the declared
	// demand bound, and an optional destination hint (nil means unknown).
	Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error
	// Decide returns the forwarding decisions for the current round. The
	// engine validates feasibility; an infeasible decision aborts the run
	// with an error. The result may be the protocol's own scratch: it stays
	// valid until the next Decide, and callers must not modify it. The
	// engine reads it only within the round.
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

	// Metrics holds the distilled summaries of the run's metric
	// collectors, keyed by collector name: the spec-selected set
	// (WithMetrics), or the default {max_load, latency} pair whose
	// scalars also populate the historical fields above.
	Metrics map[string]metrics.Summary
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
// run completes (or is cancelled), Reset rebinds it to a new Spec. What
// the engine keeps from run to run is storage only: the buffers' packet
// arrays, the occupancy index, the staging counters and the round
// scratch, each regrown only when a larger topology needs it, so sweeps
// drive thousands of runs without churning the allocator. Release drops
// the references to the last run, which lets an idle engine wait in a
// pool. It can also be single-stepped with Step for incremental driving
// (debuggers, visualizers, interleaved engines).
//
// An Engine is not safe for concurrent use; run one engine per goroutine.
type Engine struct {
	spec    Spec
	buffers []buffer.Buffer
	// occ has bit v set while buffers[v] is non-empty; occList lists those
	// nodes in ascending order, rebuilt from occ when stale.
	occ      []uint64
	occList  []network.NodeID
	occStale bool
	staged   []packet.Packet // phased acceptance: injections awaiting the phase boundary, in ID order
	stagedAt []int           // per node: how many of staged sit there
	phaseLen int
	verifier *adversary.Verifier
	round    int
	nextID   packet.ID
	res      Result
	// accepted and moved are the round's delta (Accepted, Moved): slice
	// headers over the round scratch below, or over staged's array.
	accepted []packet.Packet
	moved    []metrics.Move

	// Round scratch, reused across rounds: the injected packets, per-node
	// forward counts, the applied moves and, for rounds whose moves need
	// sorting, their sort keys and the sorted copy (hooks see packets and
	// moves only during the call).
	pkts   []packet.Packet
	sent   []int
	moves  []metrics.Move
	keys   []uint64
	sorted []metrics.Move
	// loads is Load, bound once for adaptive adversaries.
	loads adversary.Loads

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
	e.loads = e.Load
	if err := e.Reset(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset validates spec and rebinds the engine to it, discarding all state
// of the previous run. It keeps the engine's storage (see Engine) and
// allocates only where the new topology is larger than any before, so a
// run on an engine that has served a same-sized topology allocates
// nothing in the engine itself.
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
	e.occ = zeroed(e.occ, (n+63)/64)
	if cap(e.occList) < n {
		e.occList = make([]network.NodeID, 0, n)
	}
	e.occList, e.occStale = e.occList[:0], false
	e.staged = e.staged[:0]
	e.stagedAt = zeroed(e.stagedAt, n)
	e.sent = zeroed(e.sent, n)

	e.spec = spec
	e.phaseLen = phaseLen
	e.verifier = verifier
	e.round = 0
	e.nextID = 0
	e.accepted, e.moved = nil, nil

	// Bind the run's hooks: the spec's collectors run as-is, and the
	// engine adds internal max_load/latency collectors when the spec does
	// not already name them — the historical Result scalars are sourced
	// from those two, selected or not. Collectors are stateful and
	// single-run, so the spec must hand the engine fresh instances (the
	// scenario and harness layers always do).
	e.maxLoadC, e.latencyC = nil, nil
	e.dropHooks()
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

	e.res = Result{Protocol: spec.protocol.Name(), Rounds: spec.rounds}
	return nil
}

// Release drops the engine's references to its last run: the spec with
// its network, protocol, adversary, collectors, observers, invariants and
// fault model, and the verifier. The storage stays, so an idle engine
// kept for later runs pins no run's objects. A released engine must be
// Reset before it runs again.
func (e *Engine) Release() {
	e.dropHooks()
	e.spec, e.verifier = Spec{}, nil
	e.maxLoadC, e.latencyC = nil, nil
	e.res = Result{}
}

// Nodes returns the node count the engine's storage is sized for: the
// largest topology it has run on.
func (e *Engine) Nodes() int { return cap(e.buffers) }

// dropHooks empties the hook list, clearing its whole backing array so no
// earlier run's observer stays reachable through it.
func (e *Engine) dropHooks() {
	clear(e.hooks[:cap(e.hooks)])
	e.hooks = e.hooks[:0]
}

// zeroed returns s resized to n zero elements, reusing its storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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

// Occupied implements View. Rebuilding the list after a buffer turned
// empty or non-empty costs O(n/64 + occupied).
func (e *Engine) Occupied() []network.NodeID {
	if e.occStale {
		list := e.occList[:0]
		for w, word := range e.occ {
			for ; word != 0; word &= word - 1 {
				list = append(list, network.NodeID(w*64+bits.TrailingZeros64(word)))
			}
		}
		e.occList, e.occStale = list, false
	}
	return e.occList
}

// Staged returns the number of packets staged (injected but not yet
// accepted) at v. Zero for unphased protocols.
func (e *Engine) Staged(v network.NodeID) int { return e.stagedAt[v] }

// StagedPackets returns the staged packets in ID order (empty for unphased
// protocols). The slice is shared; callers must not modify it.
func (e *Engine) StagedPackets() []packet.Packet { return e.staged }

// Accepted implements View.
func (e *Engine) Accepted() []packet.Packet { return e.accepted }

// Moved implements View.
func (e *Engine) Moved() []metrics.Move { return e.moved }

// add buffers p at v, marking v occupied if it was empty.
func (e *Engine) add(v network.NodeID, p packet.Packet) {
	if e.buffers[v].Len() == 0 {
		e.occ[v/64] |= 1 << (v % 64)
		e.occStale = true
	}
	e.buffers[v].Add(p)
}

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
// neither resuming the run nor resetting the engine for another run
// mutates previously returned Results.
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
// is honored between rounds: when ctx is done (cancelled or past its
// deadline), Run stops promptly and returns the partial Result together
// with the context's error.
func (e *Engine) Run(ctx context.Context) (Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return e.Result(), err
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
		injs = ad.InjectAdaptive(t, e.loads)
	} else {
		injs = e.spec.adversary.Inject(t)
	}
	if e.verifier != nil {
		if err := e.verifier.Check(t, injs); err != nil {
			return err
		}
	}
	newPkts := e.pkts[:0]
	for _, in := range injs {
		if err := in.Validate(e.spec.net); err != nil {
			return err
		}
		p := packet.Packet{ID: e.nextID, Src: in.Src, Dst: in.Dst, Inject: t, Arrived: t}
		e.nextID++
		newPkts = append(newPkts, p)
	}
	e.pkts = newPkts
	e.res.Injected += len(newPkts)
	for _, h := range e.hooks {
		h.OnInject(t, newPkts)
	}

	// Acceptance: phased protocols see injections only at phase boundaries.
	var accepted []packet.Packet
	if e.phaseLen == 1 {
		accepted = newPkts
	} else {
		// IDs are issued in injection order, so staging by appending keeps
		// the acceptance order deterministic: by packet ID.
		e.staged = append(e.staged, newPkts...)
		for _, p := range newPkts {
			e.stagedAt[p.Src]++
		}
		if t%e.phaseLen == 0 {
			for _, p := range e.staged {
				e.stagedAt[p.Src]--
			}
			accepted, e.staged = e.staged, e.staged[:0]
		}
	}
	for _, p := range accepted {
		p.Arrived = t
		e.add(p.Src, p)
	}
	e.accepted = accepted
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
	e.moved = moves
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
	// Zero the counts of this round's senders first, so no round, not even
	// one that failed half way, leaves counts behind for the next.
	for _, d := range decisions {
		if !e.spec.net.Valid(d.From) {
			return nil, fmt.Errorf("sim: decision from invalid node %d", d.From)
		}
		e.sent[d.From] = 0
	}
	moves := e.moves[:0]
	// Remove phase: validate and detach all forwarded packets first so the
	// moves are simultaneous. Validation is fault-blind — a decision must
	// be feasible against the configured bandwidths whether or not the
	// fault model then nullifies it, so protocols cannot observe faults
	// through the engine's error behavior.
	for _, d := range decisions {
		if b := e.spec.net.Bandwidth(d.From); e.sent[d.From] >= b {
			return nil, fmt.Errorf("sim: round %d: node %d forwards %d packets but its link bandwidth is %d",
				t, d.From, e.sent[d.From]+1, b)
		}
		e.sent[d.From]++
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
		if e.buffers[d.From].Len() == 0 {
			e.occ[d.From/64] &^= 1 << (d.From % 64)
			e.occStale = true
		}
		m := metrics.Move{Pkt: p, From: d.From, To: to}
		if fm != nil && fm.Drops(t, d.From, int(p.ID)) {
			m.Dropped = true
		} else {
			m.Delivered = to == p.Dst
		}
		moves = append(moves, m)
	}
	e.moves = moves
	moves = e.arrivalOrder(moves)
	// Insert phase. Latency accounting lives in the latency collector,
	// whose OnForward receives these moves after apply returns.
	for i := range moves {
		m := &moves[i]
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
		e.add(m.To, p)
	}
	return moves, nil
}

// arrivalOrder returns the round's moves in the deterministic arrival
// order: by source node, then packet ID. Most rounds arrive in it already.
// Otherwise it sorts one key per move, the source node above the move's
// index, orders each run of one source by packet ID (a node sends at most
// its bandwidth's worth, so the runs are short) and gathers the moves once
// into scratch.
func (e *Engine) arrivalOrder(moves []metrics.Move) []metrics.Move {
	inOrder := true
	for i := 1; i < len(moves) && inOrder; i++ {
		a, b := &moves[i-1], &moves[i]
		inOrder = a.From < b.From || a.From == b.From && a.Pkt.ID < b.Pkt.ID
	}
	if inOrder {
		return moves
	}
	keys := e.keys[:0]
	for i := range moves {
		keys = append(keys, uint64(moves[i].From)<<32|uint64(i))
	}
	slices.Sort(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b uint64) int {
				return cmp.Compare(moves[uint32(a)].Pkt.ID, moves[uint32(b)].Pkt.ID)
			})
		}
		lo = hi
	}
	sorted := e.sorted[:0]
	for _, k := range keys {
		sorted = append(sorted, moves[uint32(k)])
	}
	e.keys, e.sorted = keys, sorted
	return sorted
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
