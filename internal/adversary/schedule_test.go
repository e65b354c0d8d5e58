package adversary

import (
	"math/rand"
	"slices"
	"testing"

	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// refSchedule is the map-of-slices reference a Schedule is checked
// against: each round's injections in the order they were added.
type refSchedule map[int][]packet.Injection

func (ref refSchedule) at(round int, src, dst network.NodeID) {
	ref[round] = append(ref[round], packet.Injection{Src: src, Dst: dst})
}

// check compares r with ref: the same injections in every round from −1
// to two past the last, nil on an empty round and a result that cannot
// grow into the next round, and the same destinations, last round and
// total.
func (ref refSchedule) check(t *testing.T, r *Replay) {
	t.Helper()
	last, total := -1, 0
	var dests []network.NodeID
	for round, injs := range ref {
		last = max(last, round)
		total += len(injs)
		for _, in := range injs {
			dests = append(dests, in.Dst)
		}
	}
	slices.Sort(dests)
	dests = slices.Compact(dests)
	if got := r.LastRound(); got != last {
		t.Fatalf("LastRound = %d, reference %d", got, last)
	}
	if got := r.TotalInjections(); got != total {
		t.Fatalf("TotalInjections = %d, reference %d", got, total)
	}
	if got := r.Destinations(); !slices.Equal(got, dests) {
		t.Fatalf("Destinations = %v, reference %v", got, dests)
	}
	for round := -1; round <= last+2; round++ {
		got, want := r.Inject(round), ref[round]
		if len(want) == 0 {
			if got != nil {
				t.Fatalf("round %d: Inject = %v, want nil", round, got)
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Inject = %v, reference %v", round, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("round %d: Inject has capacity %d past its %d injections", round, cap(got), len(got))
		}
	}
}

// TestScheduleMatchesReference builds random schedules through Schedule
// and, side by side, into a map of slices: injections in and out of round
// order, AtN, a Merge of another adversary, empty rounds and round 0. The
// built Replay must play back what the reference holds, and a Replay
// built earlier must not change when its schedule grows and is built
// again.
func TestScheduleMatchesReference(t *testing.T) {
	bound := Bound{Rho: rat.One, Sigma: 1}
	for seed := range int64(200) {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewSchedule(), refSchedule{}
		if seed%3 == 0 {
			s = newSchedule(rng.Intn(40), rng.Intn(40))
		}
		horizon := 1 + rng.Intn(40)
		node := func() network.NodeID { return network.NodeID(rng.Intn(12)) }
		add := func(steps int) {
			round := 0
			for range steps {
				switch k := rng.Intn(10); {
				case k < 5: // the next round or a few past it: in order
					round += rng.Intn(3)
					src, dst := node(), node()
					s.At(round, src, dst)
					ref.at(round, src, dst)
				case k < 7: // any round, often an earlier one
					r := rng.Intn(horizon)
					src, dst := node(), node()
					s.At(r, src, dst)
					ref.at(r, src, dst)
				case k < 9:
					r, n, src, dst := rng.Intn(horizon), rng.Intn(4), node(), node()
					s.AtN(r, n, src, dst)
					for range n {
						ref.at(r, src, dst)
					}
				default:
					// A round robin keeps state, so the reference reads a
					// twin of the one merged.
					src, dests := node(), []network.NodeID{node(), node()}
					rounds := rng.Intn(horizon)
					s.Merge(NewRoundRobin(bound, src, dests), rounds)
					twin := NewRoundRobin(bound, src, dests)
					for r := range rounds {
						for _, in := range twin.Inject(r) {
							ref.at(r, in.Src, in.Dst)
						}
					}
				}
			}
		}
		add(rng.Intn(30))
		first := s.Build(bound)
		ref.check(t, first)
		snapshot := refSchedule{}
		for r, injs := range ref {
			snapshot[r] = slices.Clone(injs)
		}

		add(rng.Intn(30))
		ref.check(t, s.Build(bound))
		snapshot.check(t, first)
	}
}

// TestScheduleRejectsNegativeRound: a schedule starts at round 0.
func TestScheduleRejectsNegativeRound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(-1, …) did not panic")
		}
	}()
	NewSchedule().At(-1, 0, 1)
}
