package faults

import (
	"fmt"

	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
)

// Registered model names.
const (
	DropName      = "drop"
	LinkFlapName  = "link_flap"
	NodeCrashName = "node_crash"
)

// MaxWindow caps every window-length parameter (flap periods, crash
// durations) at the same bound the metrics tier uses for series capacity,
// so a hostile scenario cannot request degenerate schedules.
const MaxWindow = 1 << 16

// Drop loses each forwarded packet independently with probability p: the
// i.i.d. per-link loss process of the router-buffer literature. The
// decision is keyed on (round, link, packet ID), so it is independent of
// query order and identical at any sweep-worker count.
type Drop struct {
	p      rat.Rat
	num    uint64
	den    uint64
	stream Stream
}

// NewDrop validates p ∈ [0, 1] and builds the model.
func NewDrop(p rat.Rat) (*Drop, error) {
	if err := checkProbability(p); err != nil {
		return nil, fmt.Errorf("faults: drop: %w", err)
	}
	num, den := probNumDen(p)
	return &Drop{p: p, num: num, den: den}, nil
}

// Name implements Model.
func (*Drop) Name() string { return DropName }

// Reset implements Model.
func (d *Drop) Reset(nw *network.Network, seed int64) error {
	if nw == nil {
		return fmt.Errorf("faults: drop: nil network")
	}
	d.stream = NewStream(seed)
	return nil
}

// LinkUp implements Model: drop never takes a link down.
func (*Drop) LinkUp(int, network.NodeID) bool { return true }

// Drops implements Model.
func (d *Drop) Drops(round int, v network.NodeID, pkt int) bool {
	return d.stream.Bernoulli(d.num, d.den, keyDrop, uint64(round), uint64(v), uint64(pkt))
}

// LinkFlap takes individual links down for transient outages: time is cut
// into windows of the given period, each (link, window) pair flips an
// independent coin with probability p, and a losing link is down for the
// first down rounds of that window. The schedule is a pure function of
// (seed, link, window), so it is reproducible at any worker count.
type LinkFlap struct {
	p      rat.Rat
	num    uint64
	den    uint64
	period int
	down   int
	stream Stream
}

// NewLinkFlap validates p ∈ [0, 1], 1 ≤ period ≤ MaxWindow and
// 0 ≤ down ≤ period, and builds the model.
func NewLinkFlap(p rat.Rat, period, down int) (*LinkFlap, error) {
	if err := checkProbability(p); err != nil {
		return nil, fmt.Errorf("faults: link_flap: %w", err)
	}
	if period < 1 || period > MaxWindow {
		return nil, fmt.Errorf("faults: link_flap: period %d outside [1, %d]", period, MaxWindow)
	}
	if down < 0 || down > period {
		return nil, fmt.Errorf("faults: link_flap: down %d outside [0, period=%d]", down, period)
	}
	num, den := probNumDen(p)
	return &LinkFlap{p: p, num: num, den: den, period: period, down: down}, nil
}

// Name implements Model.
func (*LinkFlap) Name() string { return LinkFlapName }

// Reset implements Model.
func (f *LinkFlap) Reset(nw *network.Network, seed int64) error {
	if nw == nil {
		return fmt.Errorf("faults: link_flap: nil network")
	}
	f.stream = NewStream(seed)
	return nil
}

// LinkUp implements Model.
func (f *LinkFlap) LinkUp(round int, v network.NodeID) bool {
	if f.down == 0 || round%f.period >= f.down {
		return true
	}
	window := round / f.period
	return !f.stream.Bernoulli(f.num, f.den, keyFlap, uint64(window), uint64(v))
}

// Drops implements Model: flapping never loses an in-flight packet.
func (*LinkFlap) Drops(int, network.NodeID, int) bool { return false }

// NodeCrash silences one node's outgoing link for a contiguous window:
// the node forwards nothing during rounds [at, at+duration). Injections
// at the node continue (the adversary does not observe faults), so its
// buffer grows for the duration and the protocol must absorb the backlog
// when the node recovers.
type NodeCrash struct {
	node     network.NodeID
	at       int
	duration int
}

// NewNodeCrash validates at ≥ 0 and 0 ≤ duration ≤ MaxWindow, and builds
// the model. The node is validated against the topology at Reset.
func NewNodeCrash(node network.NodeID, at, duration int) (*NodeCrash, error) {
	if at < 0 {
		return nil, fmt.Errorf("faults: node_crash: at %d negative", at)
	}
	if duration < 0 || duration > MaxWindow {
		return nil, fmt.Errorf("faults: node_crash: for %d outside [0, %d]", duration, MaxWindow)
	}
	return &NodeCrash{node: node, at: at, duration: duration}, nil
}

// Name implements Model.
func (*NodeCrash) Name() string { return NodeCrashName }

// Reset implements Model.
func (c *NodeCrash) Reset(nw *network.Network, seed int64) error {
	if nw == nil {
		return fmt.Errorf("faults: node_crash: nil network")
	}
	if !nw.Valid(c.node) {
		return fmt.Errorf("faults: node_crash: node %d outside topology of %d nodes", c.node, nw.Len())
	}
	return nil
}

// LinkUp implements Model.
func (c *NodeCrash) LinkUp(round int, v network.NodeID) bool {
	return v != c.node || round < c.at || round >= c.at+c.duration
}

// Drops implements Model: a crash nullifies forwards, it does not lose
// packets in transit.
func (*NodeCrash) Drops(int, network.NodeID, int) bool { return false }
