package adversary

import (
	"cmp"
	"fmt"
	"slices"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Replay is an adversary that plays back an explicit injection schedule.
// It is the vehicle for crafted worst-case patterns (this package) and the
// Section 5 lower-bound construction (package lowerbound). The schedule is
// flat and round-indexed, as Schedule writes it: round t's injections are
// injs[start[t]:start[t+1]], and the last round's run to the end of injs.
type Replay struct {
	bound Bound
	injs  []packet.Injection
	start []int32
}

var _ Adversary = (*Replay)(nil)
var _ DestinationHinter = (*Replay)(nil)

// Bound implements Adversary.
func (r *Replay) Bound() Bound { return r.bound }

// Inject implements Adversary. It returns the stored schedule, nil for a
// round without injections; Replay is stateless, so a result stays valid.
func (r *Replay) Inject(round int) []packet.Injection {
	if round < 0 || round >= len(r.start) {
		return nil
	}
	lo, hi := int(r.start[round]), len(r.injs)
	if round+1 < len(r.start) {
		hi = int(r.start[round+1])
	}
	if lo == hi {
		return nil
	}
	return r.injs[lo:hi:hi]
}

// Destinations implements DestinationHinter.
func (r *Replay) Destinations() []network.NodeID {
	var dests []network.NodeID
	for _, in := range r.injs {
		if i, ok := slices.BinarySearch(dests, in.Dst); !ok {
			dests = slices.Insert(dests, i, in.Dst)
		}
	}
	return dests
}

// LastRound returns the largest round with a scheduled injection, or -1.
func (r *Replay) LastRound() int { return len(r.start) - 1 }

// TotalInjections returns the number of scheduled packets.
func (r *Replay) TotalInjections() int { return len(r.injs) }

// Schedule is a fluent builder for replay adversaries. Injections added in
// nondecreasing round order, as every crafted pattern adds them, go
// straight into the flat layout Replay plays back; one added for an
// earlier round than the latest waits in late, as a packet injected at
// its round, until Build.
type Schedule struct {
	injs  []packet.Injection
	start []int32 // start[t] indexes round t's first injection; the last round is never empty
	late  []packet.Packet
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// newSchedule returns an empty schedule with room for rounds [0, rounds)
// and for n injections, presized for at most 2^16 rounds: a crafted
// pattern with a longer horizon grows its slab past that as it schedules.
func newSchedule(rounds, n int) *Schedule {
	over := max(rounds-1<<16, 0)
	return &Schedule{injs: make([]packet.Injection, 0, max(n-over, 0)), start: make([]int32, 0, max(rounds-over, 0))}
}

// At schedules an injection src→dst at the given round (≥ 0) and returns
// the schedule for chaining.
func (s *Schedule) At(round int, src, dst network.NodeID) *Schedule {
	switch {
	case round < 0:
		panic(fmt.Sprintf("adversary: schedule round %d < 0", round))
	case round < len(s.start)-1:
		s.late = append(s.late, packet.Packet{Src: src, Dst: dst, Inject: round})
		return s
	}
	for len(s.start) <= round {
		s.start = append(s.start, int32(len(s.injs)))
	}
	s.injs = append(s.injs, packet.Injection{Src: src, Dst: dst})
	return s
}

// AtN schedules n identical injections src→dst at the given round.
func (s *Schedule) AtN(round, n int, src, dst network.NodeID) *Schedule {
	for i := 0; i < n; i++ {
		s.At(round, src, dst)
	}
	return s
}

// Build returns the replay adversary with the declared bound. The declared
// bound is trusted here; use BuildVerified to check it. The replay takes
// the schedule's arrays as they are, after one stable sort by round has
// placed any injection added out of order behind its round's earlier ones.
func (s *Schedule) Build(bound Bound) *Replay {
	if len(s.late) > 0 {
		flat := &Replay{injs: s.injs, start: s.start}
		all := make([]packet.Packet, 0, len(s.injs)+len(s.late))
		for t := range s.start {
			for _, in := range flat.Inject(t) {
				all = append(all, packet.Packet{Src: in.Src, Dst: in.Dst, Inject: t})
			}
		}
		all = append(all, s.late...)
		slices.SortStableFunc(all, func(a, b packet.Packet) int { return cmp.Compare(a.Inject, b.Inject) })
		*s = Schedule{}
		for _, p := range all {
			s.At(p.Inject, p.Src, p.Dst)
		}
	}
	return &Replay{bound: bound, injs: s.injs, start: s.start}
}

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
		for _, in := range adv.Inject(t) {
			s.At(t, in.Src, in.Dst)
		}
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
