package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/faults"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
)

// greedyOldest forwards the oldest packet (lowest ID) at every non-empty
// non-sink node: a minimal well-behaved protocol for engine tests.
type greedyOldest struct {
	attached bool
	phase    int // if > 0, implements PhasedAcceptor
}

func (g *greedyOldest) Name() string { return "greedy-oldest" }

func (g *greedyOldest) Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error {
	g.attached = true
	return nil
}

func (g *greedyOldest) Decide(v View) ([]Forward, error) {
	var out []Forward
	for node := network.NodeID(0); int(node) < v.Net().Len(); node++ {
		if v.Net().Next(node) == network.None {
			continue
		}
		pkts := v.Packets(node)
		if len(pkts) == 0 {
			continue
		}
		best := pkts[0]
		for _, p := range pkts[1:] {
			if p.ID < best.ID {
				best = p
			}
		}
		out = append(out, Forward{From: node, Pkt: best.ID})
	}
	return out, nil
}

type phasedGreedy struct{ greedyOldest }

func (p *phasedGreedy) PhaseLength() int { return p.phase }

// badProtocol emits a configurable invalid decision.
type badProtocol struct {
	decide func(v View) ([]Forward, error)
}

func (b *badProtocol) Name() string { return "bad" }
func (b *badProtocol) Attach(*network.Network, adversary.Bound, []network.NodeID) error {
	return nil
}
func (b *badProtocol) Decide(v View) ([]Forward, error) { return b.decide(v) }

func fullRate(sigma int) adversary.Bound {
	return adversary.Bound{Rho: rat.One, Sigma: sigma}
}

func TestNewEngineValidation(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.Empty{}
	proto := &greedyOldest{}
	tests := []struct {
		name string
		spec Spec
	}{
		{"nil net", NewSpec(nil, proto, adv, 1)},
		{"nil protocol", NewSpec(nw, nil, adv, 1)},
		{"nil adversary", NewSpec(nw, proto, nil, 1)},
		{"negative rounds", NewSpec(nw, proto, adv, -1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEngine(tt.spec); err == nil {
				t.Error("NewEngine succeeded, want error")
			}
		})
	}
}

func TestStreamDelivery(t *testing.T) {
	nw := network.MustPath(5)
	adv := adversary.NewStream(fullRate(1), 0, 4)
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 30 {
		t.Errorf("Injected = %d, want 30", res.Injected)
	}
	// Pipeline depth 4: packets injected by round 25 are delivered.
	if res.Delivered < 25 {
		t.Errorf("Delivered = %d, want ≥ 25", res.Delivered)
	}
	if res.Residual != res.Injected-res.Delivered {
		t.Errorf("Residual = %d, want %d", res.Residual, res.Injected-res.Delivered)
	}
	// Greedy on a clean rate-1 stream: every buffer holds ≤ 1 at L_t... the
	// head node may briefly hold 2 (inject before forward). Bound: 2.
	if res.MaxLoad > 2 {
		t.Errorf("MaxLoad = %d, want ≤ 2", res.MaxLoad)
	}
	// A packet injected at t is first forwarded at t (injection precedes
	// forwarding within a round), so 4 hops deliver at round t+3.
	if res.MaxLatency != 3 {
		t.Errorf("MaxLatency = %d, want 3", res.MaxLatency)
	}
	if avg, ok := res.AvgLatency(); !ok || avg != 3 {
		t.Errorf("AvgLatency = %v,%v, want 3,true", avg, ok)
	}
	if res.Protocol != "greedy-oldest" {
		t.Errorf("Protocol = %q", res.Protocol)
	}
}

func TestAvgLatencyEmpty(t *testing.T) {
	if _, ok := (Result{}).AvgLatency(); ok {
		t.Error("AvgLatency ok on empty result")
	}
}

func TestCapacityViolationDetected(t *testing.T) {
	nw := network.MustPath(3)
	adv := adversary.NewSchedule().AtN(0, 2, 0, 2).Build(fullRate(1))
	proto := &badProtocol{decide: func(v View) ([]Forward, error) {
		pkts := v.Packets(0)
		if len(pkts) < 2 {
			return nil, nil
		}
		return []Forward{{From: 0, Pkt: pkts[0].ID}, {From: 0, Pkt: pkts[1].ID}}, nil
	}}
	_, err := Run(context.Background(), NewSpec(nw, proto, adv, 1))
	if err == nil || !containsStr(err.Error(), "link bandwidth is 1") {
		t.Errorf("err = %v, want capacity violation naming the bandwidth", err)
	}
	// The violation must locate the offending round.
	if err == nil || !containsStr(err.Error(), "round 0") {
		t.Errorf("err = %v, want the round number in the violation", err)
	}
}

func TestCapacityRespectsBandwidth(t *testing.T) {
	// With B = 2 the same two-packet decision is legal; a third forward is
	// rejected with the actual capacity in the message.
	nw := network.MustPath(3, network.WithUniformBandwidth(2))
	adv := adversary.NewSchedule().AtN(0, 3, 0, 2).Build(fullRate(1))
	forwardK := func(k int) *badProtocol {
		return &badProtocol{decide: func(v View) ([]Forward, error) {
			var out []Forward
			for _, p := range v.Packets(0) {
				if len(out) == k {
					break
				}
				out = append(out, Forward{From: 0, Pkt: p.ID})
			}
			return out, nil
		}}
	}
	if _, err := Run(context.Background(), NewSpec(nw, forwardK(2), adv, 1)); err != nil {
		t.Errorf("two forwards at B=2: unexpected error %v", err)
	}
	adv2 := adversary.NewSchedule().AtN(0, 3, 0, 2).Build(fullRate(1))
	_, err := Run(context.Background(), NewSpec(nw, forwardK(3), adv2, 1))
	if err == nil || !containsStr(err.Error(), "link bandwidth is 2") {
		t.Errorf("err = %v, want capacity violation naming bandwidth 2", err)
	}
}

func TestSinkCannotForward(t *testing.T) {
	nw := network.MustPath(3)
	adv := adversary.Empty{}
	proto := &badProtocol{decide: func(v View) ([]Forward, error) {
		return []Forward{{From: 2, Pkt: 0}}, nil
	}}
	_, err := Run(context.Background(), NewSpec(nw, proto, adv, 1))
	if err == nil || !containsStr(err.Error(), "sink") {
		t.Errorf("err = %v, want sink error", err)
	}
}

func TestForwardMissingPacket(t *testing.T) {
	nw := network.MustPath(3)
	proto := &badProtocol{decide: func(v View) ([]Forward, error) {
		return []Forward{{From: 0, Pkt: 99}}, nil
	}}
	_, err := Run(context.Background(), NewSpec(nw, proto, adversary.Empty{}, 1))
	if err == nil || !containsStr(err.Error(), "not present") {
		t.Errorf("err = %v, want missing packet error", err)
	}
}

func TestForwardFromInvalidNode(t *testing.T) {
	nw := network.MustPath(3)
	proto := &badProtocol{decide: func(v View) ([]Forward, error) {
		return []Forward{{From: 77, Pkt: 0}}, nil
	}}
	_, err := Run(context.Background(), NewSpec(nw, proto, adversary.Empty{}, 1))
	if err == nil || !containsStr(err.Error(), "invalid node") {
		t.Errorf("err = %v, want invalid node error", err)
	}
}

func TestProtocolDecideErrorPropagates(t *testing.T) {
	nw := network.MustPath(3)
	wantErr := errors.New("boom")
	proto := &badProtocol{decide: func(v View) ([]Forward, error) { return nil, wantErr }}
	_, err := Run(context.Background(), NewSpec(nw, proto, adversary.Empty{}, 1))
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestInvalidInjectionAborts(t *testing.T) {
	nw := network.MustPath(3)
	adv := adversary.NewSchedule().At(0, 2, 0).Build(fullRate(0)) // backward
	_, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 1))
	if err == nil {
		t.Error("backward injection accepted")
	}
}

func TestVerifyAdversaryCatchesViolation(t *testing.T) {
	nw := network.MustPath(4)
	// Declared (1,0)-bounded but injects 2 packets crossing buffer 0.
	adv := adversary.NewSchedule().AtN(0, 2, 0, 3).Build(fullRate(0))
	_, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 1, WithVerifyAdversary()))
	if err == nil {
		t.Error("bound violation not caught")
	}
	// Without verification the run proceeds.
	adv2 := adversary.NewSchedule().AtN(0, 2, 0, 3).Build(fullRate(0))
	if _, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv2, 1)); err != nil {
		t.Errorf("unverified run failed: %v", err)
	}
}

func TestPhasedAcceptanceStaging(t *testing.T) {
	nw := network.MustPath(4)
	// One packet injected at each of rounds 0,1,2,3.
	adv := adversary.NewStream(fullRate(1), 0, 3)
	proto := &phasedGreedy{}
	proto.phase = 3

	var acceptRounds []int
	var acceptCounts []int
	obs := &recordingObserver{
		onAccept: func(round int, pkts []packet.Packet) {
			acceptRounds = append(acceptRounds, round)
			acceptCounts = append(acceptCounts, len(pkts))
		},
	}
	eng, err := NewEngine(NewSpec(nw, proto, adv, 7, WithObservers(obs)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// OnAccept fires every round; packets arrive at rounds 0 (packet 0),
	// 3 (packets 1,2,3) and 6 (packets 4,5,6).
	if !reflect.DeepEqual(acceptRounds, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Errorf("accept rounds = %v, want [0 1 2 3 4 5 6]", acceptRounds)
	}
	if !reflect.DeepEqual(acceptCounts, []int{1, 0, 0, 3, 0, 0, 3}) {
		t.Errorf("accept counts = %v, want [1 0 0 3 0 0 3]", acceptCounts)
	}
}

func TestPhasedPhysicalLoadCountsStaged(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewStream(fullRate(1), 0, 3)
	proto := &phasedGreedy{}
	proto.phase = 4
	res, err := Run(context.Background(), NewSpec(nw, proto, adv, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 1..3 stage 3 packets at node 0 while the visible buffer holds
	// at most the round-0 packet.
	if res.MaxPhysicalLoad < 3 {
		t.Errorf("MaxPhysicalLoad = %d, want ≥ 3", res.MaxPhysicalLoad)
	}
	if res.MaxPhysicalLoad < res.MaxLoad {
		t.Errorf("physical %d < visible %d", res.MaxPhysicalLoad, res.MaxLoad)
	}
}

func TestBadPhaseLengthRejected(t *testing.T) {
	nw := network.MustPath(4)
	proto := &phasedGreedy{}
	proto.phase = 0
	if _, err := NewEngine(NewSpec(nw, proto, adversary.Empty{}, 1)); err == nil {
		t.Error("phase length 0 accepted")
	}
}

func TestInvariantAborts(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewStream(fullRate(1), 0, 3)
	inv := func(v metrics.View) error {
		if v.Load(1) > 0 {
			return fmt.Errorf("buffer 1 occupied")
		}
		return nil
	}
	_, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 5, WithInvariants(inv)))
	if err == nil || !containsStr(err.Error(), "invariant") {
		t.Errorf("err = %v, want invariant failure", err)
	}
}

type recordingObserver struct {
	metrics.NopObserver
	onAccept  func(int, []packet.Packet)
	injects   int
	forwards  int
	roundEnds int
}

func (r *recordingObserver) OnInject(round int, pkts []packet.Packet) { r.injects += len(pkts) }
func (r *recordingObserver) OnAccept(round int, pkts []packet.Packet) {
	if r.onAccept != nil {
		r.onAccept(round, pkts)
	}
}
func (r *recordingObserver) OnForward(round int, moves []metrics.Move) { r.forwards += len(moves) }
func (r *recordingObserver) OnRoundEnd(round int, v metrics.View)      { r.roundEnds++ }

func TestObserverHooks(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewStream(fullRate(1), 0, 3)
	obs := &recordingObserver{}
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 10, WithObservers(obs)))
	if err != nil {
		t.Fatal(err)
	}
	if obs.injects != res.Injected {
		t.Errorf("observer saw %d injections, result says %d", obs.injects, res.Injected)
	}
	if obs.roundEnds != 10 {
		t.Errorf("roundEnds = %d, want 10", obs.roundEnds)
	}
	if obs.forwards == 0 {
		t.Error("no forwards observed")
	}
}

func TestDeterminism(t *testing.T) {
	nw := network.MustPath(8)
	run := func() Result {
		adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, nil, 99)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 100))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MaxLoad != b.MaxLoad || a.Injected != b.Injected || a.Delivered != b.Delivered ||
		a.MaxLoadNode != b.MaxLoadNode || a.MaxLoadRound != b.MaxLoadRound ||
		a.TotalLatency != b.TotalLatency {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestTreeMultipleReceivers(t *testing.T) {
	// Star: 0→2, 1→2, 2 root. Both leaves inject; node 2 receives two
	// packets in one round (allowed: capacity is per link).
	tree, err := network.NewTree([]network.NodeID{2, 2, network.None})
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewSchedule().At(0, 0, 2).At(0, 1, 2).Build(fullRate(1))
	res, err := Run(context.Background(), NewSpec(tree, &greedyOldest{}, adv, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", res.Delivered)
	}
}

// TestPerNodeMax: an observer that scans every buffer at both sample
// points sees node 1 peak at 3 and node 0 stay empty, and the first
// maximum is node 1 at round 0.
func TestPerNodeMax(t *testing.T) {
	nw := network.MustPath(4)
	adv := adversary.NewSchedule().AtN(0, 3, 1, 3).Build(fullRate(2))
	obs := &occupancyCheck{t: t}
	res, err := Run(context.Background(), NewSpec(nw, &greedyOldest{}, adv, 6, WithObservers(obs)))
	if err != nil {
		t.Fatal(err)
	}
	if obs.perNode[1] != 3 {
		t.Errorf("node 1 peaks at %d, want 3", obs.perNode[1])
	}
	if res.MaxLoadNode != 1 || res.MaxLoadRound != 0 {
		t.Errorf("max at node %d round %d, want node 1 round 0", res.MaxLoadNode, res.MaxLoadRound)
	}
	if obs.perNode[0] != 0 {
		t.Errorf("node 0 peaks at %d, want 0", obs.perNode[0])
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

// occupancyCheck compares the engine's occupancy index with a scan of
// every buffer at every sample point and round end, and checks that the
// buffers changed since the previous sample point by exactly the round's
// delta (Accepted at L_t, Moved after forwarding). It also keeps what an
// ascending scan of every buffer at every sample point finds: per-node
// maxima and max_load's scalars.
type occupancyCheck struct {
	metrics.NopObserver
	t      *testing.T
	checks int
	// loads holds each node's load at the previous sample point.
	loads, perNode                          []int
	maxLoad, maxNode, maxRound, maxPhysical int
}

func (o *occupancyCheck) check(round int, v metrics.View) {
	var want []network.NodeID
	for u := network.NodeID(0); int(u) < v.Net().Len(); u++ {
		if v.Load(u) > 0 {
			want = append(want, u)
		}
	}
	if got := v.Occupied(); !slices.Equal(got, want) {
		o.t.Fatalf("round %d: Occupied = %v, buffers hold packets at %v", round, got, want)
	}
	o.checks++
}

func (o *occupancyCheck) OnSample(round int, p metrics.Point, v metrics.View) {
	o.check(round, v)
	n := v.Net().Len()
	if o.loads == nil {
		o.loads, o.perNode = make([]int, n), make([]int, n)
	}
	if p == metrics.LT {
		for _, pk := range v.Accepted() {
			o.loads[pk.Src]++
		}
	} else {
		for _, m := range v.Moved() {
			o.loads[m.From]--
			if !m.Delivered && !m.Dropped {
				o.loads[m.To]++
			}
		}
	}
	for u := range n {
		load := v.Load(network.NodeID(u))
		if load != o.loads[u] {
			o.t.Fatalf("round %d point %d: node %d holds %d packets, its previous load plus the delta %d", round, p, u, load, o.loads[u])
		}
		o.perNode[u] = max(o.perNode[u], load)
		if load > o.maxLoad {
			o.maxLoad, o.maxNode, o.maxRound = load, u, round
		}
		o.maxPhysical = max(o.maxPhysical, load+v.Staged(network.NodeID(u)))
	}
}

func (o *occupancyCheck) OnRoundEnd(round int, v metrics.View) { o.check(round, v) }

// TestOccupiedMatchesLoads drives one engine through runs that fill and
// drain buffers (a tree, phased acceptance, lossy links, downed links)
// and checks the occupancy index and the round's delta against every
// buffer after each change, across Reset, and max_load, which samples only
// the buffers the delta grew, against a scan of every buffer.
func TestOccupiedMatchesLoads(t *testing.T) {
	tree, err := network.CaterpillarTree(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := faults.NewDrop(rat.New(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := network.MustPath(70) // more than one bitset word
	if err := drop.Reset(path, 3); err != nil {
		t.Fatal(err)
	}
	flap, err := faults.NewLinkFlap(rat.New(1, 2), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := flap.Reset(path, 5); err != nil {
		t.Fatal(err)
	}
	phased := &phasedGreedy{}
	phased.phase = 3
	runs := []struct {
		nw    *network.Network
		proto Protocol
		opts  []Option
	}{
		{tree, &greedyOldest{}, nil},
		{path, phased, nil},
		{path, &greedyOldest{}, []Option{WithFaults(drop)}},
		{path, phased, []Option{WithFaults(flap)}},
	}
	var eng *Engine
	for i, r := range runs {
		adv, err := adversary.NewRandom(r.nw, adversary.Bound{Rho: rat.New(2, 3), Sigma: 3}, nil, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		obs := &occupancyCheck{t: t}
		spec := NewSpec(r.nw, r.proto, adv, 150, append(r.opts, WithObservers(obs))...)
		if eng == nil {
			eng, err = NewEngine(spec)
		} else {
			err = eng.Reset(spec)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLoad == 0 || obs.checks != 3*150 {
			t.Errorf("run %d: max load %d after %d checks", i, res.MaxLoad, obs.checks)
		}
		got := []int{res.MaxLoad, int(res.MaxLoadNode), res.MaxLoadRound, res.MaxPhysicalLoad}
		if want := []int{obs.maxLoad, obs.maxNode, obs.maxRound, obs.maxPhysical}; !slices.Equal(got, want) {
			t.Errorf("run %d: max load, node, round and physical %v, a scan of every buffer finds %v", i, got, want)
		}
	}
}
