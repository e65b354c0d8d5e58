package lowerbound

import (
	"fmt"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/rat"
)

func TestNewValidation(t *testing.T) {
	half := rat.New(1, 2)
	tests := []struct {
		name   string
		m, ell int
		rho    rat.Rat
		ok     bool
	}{
		{"basic", 2, 2, half, true},
		{"bigger", 4, 2, half, true},
		{"ell3", 2, 3, half, true},
		{"rho integral product", 3, 2, rat.New(1, 3), true},
		{"ell too small", 2, 1, half, false},
		{"m too small", 1, 2, half, false},
		{"rho zero", 2, 2, rat.Zero, false},
		{"rho above one", 2, 2, rat.New(3, 2), false},
		{"rho m not integral", 3, 2, half, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.m, tt.ell, tt.rho)
			if (err == nil) != tt.ok {
				t.Errorf("New(%d,%d,%v) err=%v, want ok=%v", tt.m, tt.ell, tt.rho, err, tt.ok)
			}
		})
	}
}

func TestGeometry(t *testing.T) {
	adv, err := New(2, 2, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if adv.N() != 3*4 {
		t.Errorf("N = %d, want 12", adv.N())
	}
	if adv.Rounds() != 8 {
		t.Errorf("Rounds = %d, want 8", adv.Rounds())
	}
	nw, err := adv.Network()
	if err != nil {
		t.Fatal(err)
	}
	if nw.Len() != 13 {
		t.Errorf("network size = %d, want 13", nw.Len())
	}
	// Phase 0 (t_2 t_1 = 00): v_2 = 3·4 − 1·2·2 = 8; v_1 = v_2 + (2·2 − 1·1·1) = 8+3 = 11.
	if got := adv.V(2, 0); got != 8 {
		t.Errorf("v_2(00) = %d, want 8", got)
	}
	if got := adv.V(1, 0); got != 11 {
		t.Errorf("v_1(00) = %d, want 11", got)
	}
	if got := adv.F(0); got != 11 {
		t.Errorf("F(0) = %d, want 11", got)
	}
	// F is non-increasing over the whole pattern.
	prev := adv.F(0)
	for r := 1; r < adv.Rounds(); r++ {
		if f := adv.F(r); f > prev {
			t.Fatalf("F increased: F(%d)=%d > F(%d)=%d", r, f, r-1, prev)
		} else {
			prev = f
		}
	}
}

func TestRoutesTileTheLine(t *testing.T) {
	adv, err := New(3, 2, rat.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < adv.Rounds(); round += adv.M() {
		// type ℓ+1: 0 → v_ℓ; type k: v_k → v_{k−1}; type 1: v_1 → n.
		prevDst := 0
		for typ := adv.Ell() + 1; typ >= 1; typ-- {
			src, dst := adv.Route(typ, round)
			if int(src) != prevDst {
				t.Fatalf("round %d type %d: src %d, want %d (tiling)", round, typ, src, prevDst)
			}
			if int(dst) <= int(src) {
				t.Fatalf("round %d type %d: degenerate route %d→%d", round, typ, src, dst)
			}
			prevDst = int(dst)
		}
		if prevDst != adv.N() {
			t.Fatalf("round %d: tiling ends at %d, want n=%d", round, prevDst, adv.N())
		}
	}
}

func TestRoutePanicsOnBadType(t *testing.T) {
	adv, err := New(2, 2, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Route(0) did not panic")
		}
	}()
	adv.Route(0, 0)
}

// TestIsRhoOneBounded verifies the construction's central claim: the
// pattern is (ρ,1)-bounded (checked with the exact excess verifier over the
// full horizon).
func TestIsRhoOneBounded(t *testing.T) {
	cases := []struct {
		m, ell int
		rho    rat.Rat
	}{
		{2, 2, rat.New(1, 2)},
		{4, 2, rat.New(1, 2)},
		{4, 2, rat.New(3, 4)},
		{2, 3, rat.New(1, 2)},
		{3, 2, rat.New(2, 3)},
		{6, 2, rat.New(1, 2)},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("m=%d_ell=%d_rho=%v", tc.m, tc.ell, tc.rho), func(t *testing.T) {
			adv, err := New(tc.m, tc.ell, tc.rho)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := adv.Network()
			if err != nil {
				t.Fatal(err)
			}
			if err := adversary.VerifyPrefix(nw, adv, adv.Rounds()); err != nil {
				t.Errorf("pattern violates (ρ,1): %v", err)
			}
		})
	}
}

func TestInjectionVolume(t *testing.T) {
	adv, err := New(4, 2, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// (ℓ+1)·ρm = 3·2 = 6 packets per phase, m^ℓ = 16 phases → 96 total.
	total := 0
	for r := 0; r < adv.Rounds(); r++ {
		total += len(adv.Inject(r))
	}
	want := (adv.Ell() + 1) * 2 * 16
	if total != want {
		t.Errorf("total injections = %d, want %d", total, want)
	}
	if got := adv.Inject(adv.Rounds() + 5); got != nil {
		t.Errorf("injections after pattern end: %v", got)
	}
}

func TestPredictedBound(t *testing.T) {
	adv, err := New(8, 2, rat.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	// ((ℓ+1)ρ−1)/(2ℓ)·m = (9/4−1)/4·8 = (5/4)·2 = 5/2.
	if got := adv.PredictedBound(); !got.Equal(rat.New(5, 2)) {
		t.Errorf("PredictedBound = %v, want 5/2", got)
	}
	// Degenerate rate: ρ ≤ 1/(ℓ+1) predicts 0.
	low, err := New(3, 2, rat.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := low.PredictedBound(); got.Sign() != 0 {
		t.Errorf("PredictedBound = %v, want 0", got)
	}
}

func TestStatusString(t *testing.T) {
	if Fresh.String() != "fresh" || AlphaStale.String() != "α-stale" || BetaStale.String() != "β-stale" {
		t.Error("status strings wrong")
	}
	if Status(99).String() == "" {
		t.Error("unknown status renders empty")
	}
}
