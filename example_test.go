package smallbuffers_test

// Compile-checked documentation examples for the public API. Each example
// is a self-contained snippet of the kind a user would write; outputs are
// deterministic, so `go test` verifies them.

import (
	"context"
	"fmt"

	sb "smallbuffers"
)

// ExampleRunContext simulates PPTS against a crafted worst case and checks
// the Proposition 3.2 bound.
func ExampleRunContext() {
	nw, err := sb.NewPath(32)
	if err != nil {
		panic(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 2}
	adv, err := sb.PPTSBurstAdversary(nw, bound, 4, 256) // d = 4 destinations
	if err != nil {
		panic(err)
	}
	res, err := sb.RunContext(context.Background(), sb.NewSpec(nw, sb.NewPPTS(), adv, 256))
	if err != nil {
		panic(err)
	}
	fmt.Printf("max load %d ≤ 1+d+σ = %d: %v\n", res.MaxLoad, 1+4+2, res.MaxLoad <= 7)
	// Output: max load 7 ≤ 1+d+σ = 7: true
}

// ExampleNewHierarchy walks the Figure 1 virtual trajectory.
func ExampleNewHierarchy() {
	h, err := sb.NewHierarchy(2, 4) // n = 16, the paper's Figure 1
	if err != nil {
		panic(err)
	}
	for _, seg := range h.Segments(0, 13) {
		fmt.Printf("level %d: %d → %d\n", seg.Level, seg.From, seg.To)
	}
	// Output:
	// level 3: 0 → 8
	// level 2: 8 → 12
	// level 0: 12 → 13
}

// ExampleNewLowerBoundAdversary shows the Theorem 5.1 pattern geometry.
func ExampleNewLowerBoundAdversary() {
	lb, err := sb.NewLowerBoundAdversary(4, 2, sb.NewRat(3, 4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("buffers %d, rounds %d, floor %v\n", lb.N(), lb.Rounds(), lb.PredictedBound())
	fmt.Printf("F(0) = %d, F moves left: F(last) = %d\n", lb.F(0), lb.F(lb.Rounds()-1))
	// Output:
	// buffers 48, rounds 64, floor 5/4
	// F(0) = 47, F moves left: F(last) = 20
}

// ExampleNewSchedule builds and verifies an explicit injection pattern.
func ExampleNewSchedule() {
	nw, err := sb.NewPath(8)
	if err != nil {
		panic(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 1), Sigma: 1}
	adv := sb.NewSchedule().
		At(0, 0, 7).     // round 0: inject 0 → 7
		AtN(3, 2, 2, 7). // round 3: two packets 2 → 7
		Build(bound)
	err = sb.VerifyAdversary(nw, adv, 10)
	fmt.Println("within (1,1):", err == nil)
	// Output: within (1,1): true
}

// ExampleNewUnion composes edge-disjoint sources with a tight bound.
func ExampleNewUnion() {
	nw, err := sb.NewPath(9)
	if err != nil {
		panic(err)
	}
	bound := sb.Bound{Rho: sb.NewRat(1, 2), Sigma: 1}
	left, err := sb.NewOnOff(bound, 0, 4)
	if err != nil {
		panic(err)
	}
	right, err := sb.NewOnOff(bound, 4, 8)
	if err != nil {
		panic(err)
	}
	u := sb.NewUnion(left, right).WithUnionBound(bound) // routes are disjoint
	err = sb.VerifyAdversary(nw, u, 100)
	fmt.Println("tight union bound holds:", err == nil)
	// Output: tight union bound holds: true
}
