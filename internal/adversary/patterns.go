package adversary

import (
	"fmt"
	"sort"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Replay is an adversary that plays back an explicit injection schedule.
// It is the vehicle for crafted worst-case patterns (this package) and the
// Section 5 lower-bound construction (package lowerbound).
type Replay struct {
	bound   Bound
	byRound map[int][]packet.Injection
	dests   []network.NodeID
}

var _ Adversary = (*Replay)(nil)
var _ DestinationHinter = (*Replay)(nil)

// NewReplay builds a replay adversary from a schedule. The declared bound
// is trusted here; use VerifyPrefix or Schedule.Verify to check it.
func NewReplay(bound Bound, byRound map[int][]packet.Injection) *Replay {
	destSet := make(map[network.NodeID]bool)
	copied := make(map[int][]packet.Injection, len(byRound))
	for r, injs := range byRound {
		copied[r] = append([]packet.Injection(nil), injs...)
		for _, in := range injs {
			destSet[in.Dst] = true
		}
	}
	dests := make([]network.NodeID, 0, len(destSet))
	for d := range destSet {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return &Replay{bound: bound, byRound: copied, dests: dests}
}

// Bound implements Adversary.
func (r *Replay) Bound() Bound { return r.bound }

// Inject implements Adversary. It returns the stored schedule, nil for a
// round without injections; Replay is stateless, so a result stays valid.
func (r *Replay) Inject(round int) []packet.Injection { return r.byRound[round] }

// Destinations implements DestinationHinter.
func (r *Replay) Destinations() []network.NodeID {
	return append([]network.NodeID(nil), r.dests...)
}

// LastRound returns the largest round with a scheduled injection, or -1.
func (r *Replay) LastRound() int {
	last := -1
	for t := range r.byRound {
		if t > last {
			last = t
		}
	}
	return last
}

// TotalInjections returns the number of scheduled packets.
func (r *Replay) TotalInjections() int {
	total := 0
	for _, injs := range r.byRound {
		total += len(injs)
	}
	return total
}

// Schedule is a fluent builder for replay adversaries.
type Schedule struct {
	byRound map[int][]packet.Injection
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule {
	return &Schedule{byRound: make(map[int][]packet.Injection)}
}

// At schedules an injection src→dst at the given round and returns the
// schedule for chaining.
func (s *Schedule) At(round int, src, dst network.NodeID) *Schedule {
	s.byRound[round] = append(s.byRound[round], packet.Injection{Src: src, Dst: dst})
	return s
}

// AtN schedules n identical injections src→dst at the given round.
func (s *Schedule) AtN(round, n int, src, dst network.NodeID) *Schedule {
	for i := 0; i < n; i++ {
		s.At(round, src, dst)
	}
	return s
}

// Build returns the replay adversary with the declared bound.
func (s *Schedule) Build(bound Bound) *Replay { return NewReplay(bound, s.byRound) }

// BuildVerified returns the replay adversary after checking the schedule
// against the declared bound for `rounds` rounds.
func (s *Schedule) BuildVerified(nw *network.Network, bound Bound, rounds int) (*Replay, error) {
	r := s.Build(bound)
	if err := VerifyPrefix(nw, r, rounds); err != nil {
		return nil, fmt.Errorf("adversary: schedule fails declared bound: %w", err)
	}
	return r, nil
}

// Merge overlays another adversary's first `rounds` rounds onto a schedule.
// The combined schedule's bound must be re-declared (and ideally
// re-verified) by the caller: bounds do not compose additively unless the
// merged routes are disjoint.
func (s *Schedule) Merge(adv Adversary, rounds int) *Schedule {
	for t := 0; t < rounds; t++ {
		s.byRound[t] = append(s.byRound[t], adv.Inject(t)...)
	}
	return s
}

// Empty is an adversary that injects nothing; useful for draining phases
// and as a base case in tests.
type Empty struct{}

var _ Adversary = Empty{}

// Bound implements Adversary: the empty pattern is (0,0)-bounded.
func (Empty) Bound() Bound { return Bound{} }

// Inject implements Adversary.
func (Empty) Inject(int) []packet.Injection { return nil }
