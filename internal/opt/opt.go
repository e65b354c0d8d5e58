// Package opt computes the exact offline optimum of the buffer-minimization
// game on tiny instances: the minimal achievable worst-case buffer
// occupancy over all forwarding schedules, for a fixed injection pattern on
// a path. Theorem 5.1 lower-bounds this quantity for the Section 5 pattern;
// this package provides the ground truth to compare against (experiment
// E9), and doubles as an optimality check for PTS/PPTS on small cases.
//
// The state space is exponential, so Solve is deliberately guarded by an
// explicit budget: it is a verification tool, not a protocol.
package opt

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// Config bounds the search.
type Config struct {
	// Net is the path to schedule on.
	Net *network.Network
	// Adversary supplies the injections; it is consumed for Rounds rounds.
	Adversary adversary.Adversary
	// Rounds is the horizon. The objective is the maximum, over rounds and
	// buffers, of the post-injection occupancy L_t.
	Rounds int
	// MaxStates caps the memo table size (default 2_000_000). Solve fails
	// rather than exceed it.
	MaxStates int
	// MaxBranch caps the number of decision combinations explored per state
	// (default 4096). Solve fails rather than exceed it.
	MaxBranch int
}

// Result reports the optimum.
type Result struct {
	// OptMaxLoad is the minimal achievable maximum buffer occupancy.
	OptMaxLoad int
	// StatesExplored counts memoized states.
	StatesExplored int
}

// state is a canonical configuration: per node, the sorted multiset of
// packet destinations (only destinations matter for future loads).
type state struct {
	// dests[v] sorted ascending.
	dests [][]int16
}

func (s *state) key(round int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(round))
	for v, ds := range s.dests {
		if len(ds) == 0 {
			continue
		}
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(':')
		for _, d := range ds {
			b.WriteString(strconv.Itoa(int(d)))
			b.WriteByte(',')
		}
	}
	return b.String()
}

func (s *state) clone() *state {
	c := &state{dests: make([][]int16, len(s.dests))}
	for v, ds := range s.dests {
		if len(ds) > 0 {
			c.dests[v] = append([]int16(nil), ds...)
		}
	}
	return c
}

func (s *state) maxLoad() int {
	m := 0
	for _, ds := range s.dests {
		if len(ds) > m {
			m = len(ds)
		}
	}
	return m
}

func (s *state) insert(v network.NodeID, dst int16) {
	ds := s.dests[v]
	i := sort.Search(len(ds), func(i int) bool { return ds[i] >= dst })
	ds = append(ds, 0)
	copy(ds[i+1:], ds[i:])
	ds[i] = dst
	s.dests[v] = ds
}

// removeOne removes one packet with the given destination from v.
func (s *state) removeOne(v network.NodeID, dst int16) {
	ds := s.dests[v]
	i := sort.Search(len(ds), func(i int) bool { return ds[i] >= dst })
	s.dests[v] = append(ds[:i], ds[i+1:]...)
}

type solver struct {
	cfg        Config
	injections [][]packet.Injection
	memo       map[string]int
	maxStates  int
	maxBranch  int
}

// Solve computes the optimum. It returns an error if the search exceeds its
// budgets or the configuration is invalid.
func Solve(cfg Config) (Result, error) {
	if cfg.Net == nil || cfg.Adversary == nil {
		return Result{}, fmt.Errorf("opt: nil network or adversary")
	}
	if !cfg.Net.IsPath() {
		return Result{}, fmt.Errorf("opt: exhaustive search supports paths only")
	}
	if cfg.Rounds < 0 {
		return Result{}, fmt.Errorf("opt: negative horizon")
	}
	s := &solver{
		cfg:       cfg,
		memo:      make(map[string]int),
		maxStates: cfg.MaxStates,
		maxBranch: cfg.MaxBranch,
	}
	if s.maxStates <= 0 {
		s.maxStates = 2_000_000
	}
	if s.maxBranch <= 0 {
		s.maxBranch = 4096
	}
	// Pre-draw the injection schedule (adversaries are stateful), copying
	// each round: an Inject result is valid only until the next call.
	s.injections = make([][]packet.Injection, cfg.Rounds)
	for t := 0; t < cfg.Rounds; t++ {
		injs := cfg.Adversary.Inject(t)
		for _, in := range injs {
			if err := in.Validate(cfg.Net); err != nil {
				return Result{}, fmt.Errorf("opt: round %d: %w", t, err)
			}
		}
		s.injections[t] = slices.Clone(injs)
	}
	init := &state{dests: make([][]int16, cfg.Net.Len())}
	opt, err := s.solve(0, init)
	if err != nil {
		return Result{}, err
	}
	return Result{OptMaxLoad: opt, StatesExplored: len(s.memo)}, nil
}

// solve returns the minimal achievable max load over rounds [round, Rounds)
// starting from st (pre-injection at `round`).
func (s *solver) solve(round int, st *state) (int, error) {
	if round >= s.cfg.Rounds {
		return 0, nil
	}
	key := st.key(round)
	if v, ok := s.memo[key]; ok {
		return v, nil
	}
	if len(s.memo) >= s.maxStates {
		return 0, fmt.Errorf("opt: state budget (%d) exceeded", s.maxStates)
	}

	// Injection step (deterministic).
	work := st.clone()
	for _, in := range s.injections[round] {
		work.insert(in.Src, int16(in.Dst))
	}
	loadNow := work.maxLoad()

	// Enumerate decision combinations: per occupied non-sink node, forward
	// one of its distinct destination classes or nothing.
	type option struct {
		node  network.NodeID
		dests []int16 // distinct
	}
	var opts []option
	for v := 0; v < s.cfg.Net.Len(); v++ {
		node := network.NodeID(v)
		if s.cfg.Net.Next(node) == network.None || len(work.dests[node]) == 0 {
			continue
		}
		distinct := work.dests[node][:0:0]
		var last int16 = -1
		for _, d := range work.dests[node] {
			if d != last {
				distinct = append(distinct, d)
				last = d
			}
		}
		opts = append(opts, option{node: node, dests: distinct})
	}
	combos := 1
	for _, o := range opts {
		combos *= len(o.dests) + 1
		if combos > s.maxBranch {
			return 0, fmt.Errorf("opt: branch budget (%d) exceeded at round %d", s.maxBranch, round)
		}
	}

	best := int(^uint(0) >> 1) // max int
	choice := make([]int, len(opts))
	for {
		// Apply the current choice vector.
		next := work.clone()
		for i, o := range opts {
			if choice[i] == 0 {
				continue
			}
			dst := o.dests[choice[i]-1]
			to := s.cfg.Net.Next(o.node)
			next.removeOne(o.node, dst)
			if int16(to) != dst {
				next.insert(to, dst)
			}
		}
		sub, err := s.solve(round+1, next)
		if err != nil {
			return 0, err
		}
		if sub < best {
			best = sub
		}
		if best <= loadNow {
			break // cannot do better than the forced current load
		}
		// Advance the mixed-radix choice vector.
		i := 0
		for ; i < len(opts); i++ {
			choice[i]++
			if choice[i] <= len(opts[i].dests) {
				break
			}
			choice[i] = 0
		}
		if i == len(opts) {
			break
		}
	}
	if best < loadNow {
		best = loadNow
	}
	s.memo[key] = best
	return best, nil
}
