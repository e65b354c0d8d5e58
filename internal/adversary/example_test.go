package adversary_test

import (
	"fmt"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/rat"
)

// ExampleNewSchedule builds and verifies an explicit injection pattern.
func ExampleNewSchedule() {
	nw, err := network.NewPath(8)
	if err != nil {
		panic(err)
	}
	bound := adversary.Bound{Rho: rat.New(1, 1), Sigma: 1}
	adv := adversary.NewSchedule().
		At(0, 0, 7).     // round 0: inject 0 → 7
		AtN(3, 2, 2, 7). // round 3: two packets 2 → 7
		Build(bound)
	err = adversary.VerifyPrefix(nw, adv, 10)
	fmt.Println("within (1,1):", err == nil)
	// Output: within (1,1): true
}
