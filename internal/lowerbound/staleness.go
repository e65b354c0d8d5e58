package lowerbound

import (
	"fmt"

	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// Status classifies a live packet in the Section 5 accounting.
type Status int

// Staleness states. A packet is fresh while it sits at or behind the
// frontier F(t); it becomes α-stale by being forwarded out of buffer F(t)
// and β-stale by the frontier jumping leftward over it at a phase boundary
// (Lemma 5.2).
const (
	Fresh Status = iota + 1
	AlphaStale
	BetaStale
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case AlphaStale:
		return "α-stale"
	case BetaStale:
		return "β-stale"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// StalenessTracker replays the fresh/stale accounting of Section 5 during
// a simulation: Lemmas 5.2–5.4 are verified as the run progresses (Err
// holds the first violation) and Lemma 5.5's dichotomy is checked by
// calling Lemma55 after the pattern completes. Register it as an engine
// observer.
type StalenessTracker struct {
	metrics.NopObserver
	adv *Adversary

	// loc[id] is P(t+1) after the round-t forwarding step; status[id]
	// likewise.
	loc    map[packet.ID]network.NodeID
	status map[packet.ID]Status
	moved  map[packet.ID]bool

	alphaTotal int
	betaTotal  int
	// alphaPerRound records Lemma 5.4's α rate (must be ≤ 1 per round).
	alphaThisRound int
	betaThisRound  int

	// Lemma 5.5 ledger: per top-digit epoch e (m^ℓ rounds each), whether a
	// qualifying β-stale burst occurred (scenario 1), and the fresh counts
	// f(e) sampled at epoch boundaries (freshAt[e] = f(e), with f(0) = 0).
	scenario1 []bool
	freshAt   []int
	epochLen  int

	// Err holds the first lemma violation observed, if any.
	Err error
}

// NewStalenessTracker returns a tracker for a run of the given pattern.
func NewStalenessTracker(adv *Adversary) *StalenessTracker {
	return &StalenessTracker{
		adv:       adv,
		loc:       make(map[packet.ID]network.NodeID),
		status:    make(map[packet.ID]Status),
		moved:     make(map[packet.ID]bool),
		scenario1: make([]bool, adv.M()),
		freshAt:   []int{0},               // f(0) = 0: nothing injected before epoch 0
		epochLen:  adv.Rounds() / adv.M(), // m^ℓ rounds per top digit
	}
}

// OnInject implements metrics.Observer: packets are fresh at injection
// (P(t) is either 0 or F(t)).
func (st *StalenessTracker) OnInject(round int, pkts []packet.Packet) {
	for _, p := range pkts {
		st.loc[p.ID] = p.Src
		st.status[p.ID] = Fresh
	}
}

// OnForward implements metrics.Observer.
func (st *StalenessTracker) OnForward(round int, moves []metrics.Move) {
	st.alphaThisRound = 0
	st.betaThisRound = 0
	for id := range st.moved {
		delete(st.moved, id)
	}
	for _, m := range moves {
		st.moved[m.Pkt.ID] = true
		if m.Delivered {
			// Lemma 5.3: no packet is delivered fresh. The packet occupies
			// its destination in round t+1; staleness there is implied by
			// being stale when leaving buffer F — conservatively, flag if it
			// was fresh at the start of the round and its destination is at
			// or behind the next frontier.
			if st.status[m.Pkt.ID] == Fresh && int(m.To) <= st.frontier(round+1) {
				st.fail(fmt.Errorf("lowerbound: packet %v delivered while fresh at round %d", m.Pkt, round))
			}
			delete(st.loc, m.Pkt.ID)
			delete(st.status, m.Pkt.ID)
			continue
		}
		st.loc[m.Pkt.ID] = m.To
	}
	st.reclassify(round)
}

// frontier returns F(t), clamped to the final phase for rounds past the
// pattern end.
func (st *StalenessTracker) frontier(round int) int {
	if round >= st.adv.Rounds() {
		round = st.adv.Rounds() - 1
	}
	return st.adv.F(round)
}

// reclassify applies Lemma 5.2 at the end of round t: packets that were
// fresh and are now beyond F(t+1) became stale, by exactly one of the two
// sanctioned causes.
func (st *StalenessTracker) reclassify(round int) {
	fNow := st.frontier(round)
	fNext := st.frontier(round + 1)
	for id, s := range st.status {
		if s != Fresh {
			continue
		}
		pos := int(st.loc[id])
		if pos <= fNext {
			continue // still fresh
		}
		// Became stale at end of round `round`: classify.
		switch {
		case st.moved[id] && pos == fNow+1:
			// Condition 1: was at F(t) and was forwarded.
			st.status[id] = AlphaStale
			st.alphaTotal++
			st.alphaThisRound++
			if st.alphaThisRound > 1 {
				st.fail(fmt.Errorf("lowerbound: %d α-stale packets in round %d (Lemma 5.4 allows 1)", st.alphaThisRound, round))
			}
		case fNext < fNow && pos >= fNext+1 && pos <= fNow:
			// Condition 2: frontier jumped over the packet.
			st.status[id] = BetaStale
			st.betaTotal++
			st.betaThisRound++
		default:
			st.fail(fmt.Errorf("lowerbound: packet #%d at %d went stale outside Lemma 5.2 (F(t)=%d, F(t+1)=%d, moved=%v)",
				id, pos, fNow, fNext, st.moved[id]))
			st.status[id] = AlphaStale // classify to keep counters sane
		}
	}
}

func (st *StalenessTracker) fail(err error) {
	if st.Err == nil {
		st.Err = err
	}
}

// OnRoundEnd implements metrics.Observer: it maintains the Lemma 5.5 ledger.
func (st *StalenessTracker) OnRoundEnd(round int, _ metrics.View) {
	m := st.adv.M()
	// Scenario 1 bookkeeping at the end of each m-round phase: k is the
	// number of trailing (m−1) digits of the phase index, i.e. the smallest
	// k with t_{k+1} < m−1 (Lemma 5.4); the β-stale burst qualifies when it
	// reaches ((ℓ+1)ρ−1)·m^(k+1)/2ℓ.
	if round%m == m-1 && round < st.adv.Rounds() {
		phase := round / m
		epoch := round / st.epochLen
		k := 0
		p := phase
		for k < st.adv.Ell() && p%m == m-1 {
			k++
			p /= m
		}
		if k < st.adv.Ell() && epoch < len(st.scenario1) {
			thr := st.beta55Threshold(k)
			if thr.Sign() <= 0 || thr.LessEq(rat.FromInt(int64(st.betaThisRound))) {
				st.scenario1[epoch] = true
			}
		}
	}
	// Fresh-count samples at epoch boundaries: f(e) is sampled at the end
	// of the last round before epoch e starts (pre-injection, consistently
	// at both ends of every epoch).
	if (round+1)%st.epochLen == 0 {
		st.freshAt = append(st.freshAt, st.FreshCount())
	}
}

// beta55Threshold returns ((ℓ+1)ρ−1)·m^(k+1)/(2ℓ).
func (st *StalenessTracker) beta55Threshold(k int) rat.Rat {
	ell := st.adv.Ell()
	num := st.adv.rho.MulInt(int64(ell + 1)).Sub(rat.One)
	pow := int64(1)
	for i := 0; i <= k; i++ {
		pow *= int64(st.adv.M())
	}
	return num.MulInt(pow).Div(rat.FromInt(int64(2 * ell)))
}

// Lemma55 checks the dichotomy of Lemma 5.5 over the recorded run: for
// every top-digit epoch e ∈ {0,…,m−2}, either a qualifying β-stale burst
// occurred during the epoch (scenario 1) or the fresh population grew by at
// least ((ℓ+1)ρ−1)·m^ℓ/2 across it (scenario 2). Call after the full
// pattern has been simulated; it returns nil when the lemma held.
func (st *StalenessTracker) Lemma55() error {
	growth := st.adv.rho.MulInt(int64(st.adv.Ell() + 1)).Sub(rat.One).
		MulInt(int64(st.epochLen)).Div(rat.FromInt(2))
	for e := 0; e+1 < len(st.freshAt) && e <= st.adv.M()-2; e++ {
		if st.scenario1[e] {
			continue
		}
		delta := rat.FromInt(int64(st.freshAt[e+1] - st.freshAt[e]))
		if delta.Less(growth) {
			return fmt.Errorf("lowerbound: Lemma 5.5 violated at epoch %d: no β burst and fresh growth %v < %v",
				e, delta, growth)
		}
	}
	return nil
}

// FreshCount returns the number of live fresh packets (the f(·) of
// Lemma 5.5).
func (st *StalenessTracker) FreshCount() int {
	n := 0
	for _, s := range st.status {
		if s == Fresh {
			n++
		}
	}
	return n
}

// AlphaTotal returns the cumulative α-stale count.
func (st *StalenessTracker) AlphaTotal() int { return st.alphaTotal }

// BetaTotal returns the cumulative β-stale count.
func (st *StalenessTracker) BetaTotal() int { return st.betaTotal }
