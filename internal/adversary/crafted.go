package adversary

import (
	"fmt"

	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
)

// Crafted worst-case patterns. Each targets the tightness of one of the
// paper's upper bounds: the goal is to drive some buffer as close as
// possible to the bound while remaining (ρ,σ)-bounded. All constructors
// return verified Replay adversaries (construction fails if the schedule
// would violate its own declared bound, so the patterns are trustworthy by
// construction).

// maxBurst returns the largest integer burst admissible in a single round
// at a buffer with zero excess: ⌊ρ + σ⌋.
func maxBurst(b Bound) int {
	return int(b.Rho.Add(rat.FromInt(int64(b.Sigma))).Floor())
}

// smoother emits a rate-ρ stream with credit capped at one packet, so the
// emission count over any window of w rounds is at most ρ·w + 1 and a pause
// never causes a catch-up burst. It emits at most once a round: h rounds
// schedule at most h stream packets.
type smoother struct {
	rho    rat.Rat
	credit rat.Rat
}

// tick advances one round and reports whether a packet is due.
func (s *smoother) tick() bool {
	s.credit = s.credit.Add(s.rho).Min(rat.One)
	if rat.One.LessEq(s.credit) {
		s.credit = s.credit.Sub(rat.One)
		return true
	}
	return false
}

// pause forfeits all accumulated credit (used around bursts so the burst
// can spend the full σ headroom).
func (s *smoother) pause() { s.credit = rat.Zero }

// quietWindow returns how many silent rounds fully drain any residual
// excess at rate ρ: ⌈1/ρ⌉ (excess from a capped smoother never exceeds 1).
func quietWindow(rho rat.Rat) int {
	if rho.IsZero() {
		return 1
	}
	return int(rho.Inv().Ceil())
}

// PTSBurst targets Proposition 3.1 (PTS ≤ 2 + σ): a smooth rate-ρ stream
// 0 → n−1 keeps the line occupied; after a quiet window that drains the
// stream's excess, a one-round burst of ⌊ρ+σ⌋ packets lands on a mid-line
// buffer. Rounds [0, horizon) are scheduled; the burst fires near
// horizon/2.
func PTSBurst(nw *network.Network, bound Bound, horizon int) (*Replay, error) {
	if !nw.IsPath() {
		return nil, fmt.Errorf("adversary: PTSBurst needs a path")
	}
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	n := nw.Len()
	dst := network.NodeID(n - 1)
	mid := network.NodeID(n / 2)
	if mid == dst {
		mid = dst - 1
	}
	burstRound := horizon / 2
	quiet := quietWindow(bound.Rho)
	s := newSchedule(horizon, horizon+maxBurst(bound))
	sm := smoother{rho: bound.Rho}
	for t := 0; t < horizon; t++ {
		if t >= burstRound-quiet && t <= burstRound {
			sm.pause()
			if t == burstRound {
				s.AtN(t, maxBurst(bound), mid, dst)
			}
			continue
		}
		if sm.tick() {
			s.At(t, 0, dst)
		}
	}
	return s.BuildVerified(nw, bound, horizon)
}

// PPTSBurst targets Proposition 3.2 (PPTS ≤ 1 + d + σ): the last d nodes
// are destinations; a rate-ρ round-robin stream from node 0 fills one
// pseudo-buffer per destination at the line head, then a burst of ⌊ρ+σ⌋
// packets stacks one pseudo-buffer. All routes share the prefix from node
// 0, so the per-buffer rate equals the aggregate rate.
func PPTSBurst(nw *network.Network, bound Bound, d, horizon int) (*Replay, error) {
	if !nw.IsPath() {
		return nil, fmt.Errorf("adversary: PPTSBurst needs a path")
	}
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	n := nw.Len()
	if d < 1 || d >= n {
		return nil, fmt.Errorf("adversary: PPTSBurst needs 1 ≤ d < n, got d=%d n=%d", d, n)
	}
	dests := make([]network.NodeID, d)
	for k := 0; k < d; k++ {
		dests[k] = network.NodeID(n - d + k)
	}
	burstRound := horizon / 2
	quiet := quietWindow(bound.Rho)
	s := newSchedule(horizon, horizon+maxBurst(bound))
	sm := smoother{rho: bound.Rho}
	emitted := 0
	for t := 0; t < horizon; t++ {
		if t >= burstRound-quiet && t <= burstRound {
			sm.pause()
			if t == burstRound {
				s.AtN(t, maxBurst(bound), 0, dests[d-1])
			}
			continue
		}
		if sm.tick() {
			s.At(t, 0, dests[emitted%d])
			emitted++
		}
	}
	return s.BuildVerified(nw, bound, horizon)
}

// TreeBurst targets Proposition 3.5 on trees: every destination of `dests`
// receives a smooth share of a rate-ρ stream injected at a deepest leaf
// that reaches all of them, and a burst of ⌊ρ+σ⌋ packets fires mid-run from
// that leaf toward the last destination.
func TreeBurst(nw *network.Network, bound Bound, dests []network.NodeID, horizon int) (*Replay, error) {
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	if len(dests) == 0 {
		dests = nw.Sinks()
	}
	// Injection site: a deepest leaf that reaches all destinations.
	src := network.None
	for _, leaf := range nw.Leaves() {
		ok := true
		for _, d := range dests {
			if !nw.Reaches(leaf, d) {
				ok = false
				break
			}
		}
		if ok && (src == network.None || nw.Depth(leaf) > nw.Depth(src)) {
			src = leaf
		}
	}
	if src == network.None {
		return nil, fmt.Errorf("adversary: no leaf reaches all %d destinations", len(dests))
	}
	burstRound := horizon / 2
	quiet := quietWindow(bound.Rho)
	last := dests[len(dests)-1]
	s := newSchedule(horizon, horizon+maxBurst(bound))
	sm := smoother{rho: bound.Rho}
	emitted := 0
	for t := 0; t < horizon; t++ {
		if t >= burstRound-quiet && t <= burstRound {
			sm.pause()
			if t == burstRound && src != last {
				s.AtN(t, maxBurst(bound), src, last)
			}
			continue
		}
		if sm.tick() {
			d := dests[emitted%len(dests)]
			emitted++
			if d != src {
				s.At(t, src, d)
			}
		}
	}
	return s.BuildVerified(nw, bound, horizon)
}

// GreedyKiller is the multi-destination stress pattern the introduction
// attributes to [17]: on a line with d distinct destinations and rate
// ρ > 1/2, greedy protocols are forced to store Ω(d) packets in one buffer.
// The pattern alternates feeding the d destination pseudo-buffers of a
// single staging node and then starving the head of the line so greedy
// policies drag everything into one hot buffer. It is also a useful
// adversary for PPTS (whose load stays ≤ 1 + d + σ, the point of E7).
func GreedyKiller(nw *network.Network, bound Bound, d, horizon int) (*Replay, error) {
	if !nw.IsPath() {
		return nil, fmt.Errorf("adversary: GreedyKiller needs a path")
	}
	if err := bound.ValidateFor(nw); err != nil {
		return nil, err
	}
	n := nw.Len()
	if d < 1 || 2*d >= n {
		return nil, fmt.Errorf("adversary: GreedyKiller needs 1 ≤ 2d < n, got d=%d n=%d", d, n)
	}
	// Destinations: every other node in the right half, so routes from the
	// left half cross a long shared prefix.
	dests := make([]network.NodeID, d)
	for k := 0; k < d; k++ {
		dests[k] = network.NodeID(n - 2*d + 2*k + 1)
	}
	s := newSchedule(horizon, horizon)
	sm := smoother{rho: bound.Rho}
	emitted := 0
	for t := 0; t < horizon; t++ {
		if sm.tick() {
			// Phase-alternate injection site: first from node 0 (long routes),
			// then right next to the first destination (short routes that
			// greedy policies interleave badly).
			src := network.NodeID(0)
			if (t/n)%2 == 1 {
				src = dests[0] - 1
			}
			dst := dests[emitted%d]
			emitted++
			if src != dst && nw.Reaches(src, dst) {
				s.At(t, src, dst)
			}
		}
	}
	return s.BuildVerified(nw, bound, horizon)
}
