// Package rat implements exact rational arithmetic for the small magnitudes
// that arise in adversarial-queuing accounting (rates ρ = p/q, excess values,
// load budgets). Exact rationals instead of floats keep rates and bounds free
// of rounding drift over long executions. The excess tracker of Definition
// 2.2 (adversary.Excess) instead holds q·ξ as an int64 for ρ = p/q, which
// is just as exact, and returns a Rat only when a value is read.
//
// The implementation uses int64 numerators/denominators and normalizes
// eagerly. All operations check for overflow and panic with a descriptive
// message if an intermediate product would not fit; simulation-scale values
// (rates with denominators ≤ 10^6, which adversary.CheckRate enforces,
// horizons ≤ 10^9 rounds) are far below the overflow threshold.
package rat

import (
	"fmt"
	"strconv"
	"strings"
)

// Rat is an immutable rational number p/q in lowest terms with q > 0.
// The zero value is 0/1 and is ready to use.
type Rat struct {
	p int64 // numerator, sign carrier
	q int64 // denominator, always ≥ 1 after normalization (0 only pre-normalize)
}

// Zero is the rational 0.
var Zero = Rat{0, 1}

// One is the rational 1.
var One = Rat{1, 1}

// New returns the rational p/q in lowest terms. It panics if q == 0.
func New(p, q int64) Rat {
	if q == 0 {
		panic("rat: zero denominator")
	}
	if q < 0 {
		p, q = -p, -q
	}
	g := gcd64(abs64(p), q)
	if g > 1 {
		p /= g
		q /= g
	}
	return Rat{p, q}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Parse parses a rational from "p/q", "p" (integer), or a decimal such as
// "0.25". It returns an error for malformed input or a zero denominator.
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Rat{}, fmt.Errorf("rat: empty input")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		p, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rat: bad numerator %q: %w", s[:i], err)
		}
		q, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rat: bad denominator %q: %w", s[i+1:], err)
		}
		if q == 0 {
			return Rat{}, fmt.Errorf("rat: zero denominator in %q", s)
		}
		return New(p, q), nil
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac := s[:i], s[i+1:]
		if frac == "" {
			return Rat{}, fmt.Errorf("rat: trailing decimal point in %q", s)
		}
		neg := strings.HasPrefix(whole, "-")
		w := int64(0)
		if whole != "" && whole != "-" && whole != "+" {
			var err error
			w, err = strconv.ParseInt(whole, 10, 64)
			if err != nil {
				return Rat{}, fmt.Errorf("rat: bad integer part %q: %w", whole, err)
			}
		}
		f, err := strconv.ParseInt(frac, 10, 64)
		if err != nil || f < 0 {
			return Rat{}, fmt.Errorf("rat: bad fractional part %q", frac)
		}
		den := int64(1)
		for range frac {
			den = mulCheck(den, 10)
		}
		num := mulCheck(abs64(w), den) + f
		if neg {
			num = -num
		}
		return New(num, den), nil
	}
	p, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: bad integer %q: %w", s, err)
	}
	return FromInt(p), nil
}

// MustParse is Parse but panics on error; intended for constants in tests
// and example programs.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Num returns the numerator in lowest terms (sign carrier).
func (r Rat) Num() int64 { return r.norm().p }

// Den returns the denominator in lowest terms (always ≥ 1).
func (r Rat) Den() int64 { return r.norm().q }

// norm repairs a zero-value Rat (0/0 layout from `var r Rat`) to 0/1.
func (r Rat) norm() Rat {
	if r.q == 0 {
		return Rat{0, 1}
	}
	return r
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// p1/q1 + p2/q2 = (p1*(q2/g) + p2*(q1/g)) / lcm
	g := gcd64(r.q, s.q)
	q1, q2 := r.q/g, s.q/g
	num := addCheck(mulCheck(r.p, q2), mulCheck(s.p, q1))
	den := mulCheck(r.q, q2)
	return New(num, den)
}

// Sub returns r − s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns −r.
func (r Rat) Neg() Rat { r = r.norm(); return Rat{-r.p, r.q} }

// Mul returns r · s.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Cross-reduce before multiplying to delay overflow.
	g1 := gcd64(abs64(r.p), s.q)
	g2 := gcd64(abs64(s.p), r.q)
	return New(mulCheck(r.p/g1, s.p/g2), mulCheck(r.q/g2, s.q/g1))
}

// MulInt returns r · n.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt(n)) }

// Div returns r / s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	s = s.norm()
	if s.p == 0 {
		panic("rat: division by zero")
	}
	return r.Mul(Rat{s.q, s.p}.canon())
}

// canon normalizes the sign so the denominator is positive.
func (r Rat) canon() Rat {
	if r.q < 0 {
		return Rat{-r.p, -r.q}
	}
	return r
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat { return One.Div(r) }

// Cmp compares r and s, returning −1, 0, or +1.
func (r Rat) Cmp(s Rat) int {
	d := r.Sub(s)
	switch {
	case d.p < 0:
		return -1
	case d.p > 0:
		return 1
	default:
		return 0
	}
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r ≤ s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Sign returns −1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	r = r.norm()
	switch {
	case r.p < 0:
		return -1
	case r.p > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.norm().p == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.norm().q == 1 }

// Floor returns ⌊r⌋ as an int64.
func (r Rat) Floor() int64 {
	r = r.norm()
	q := r.p / r.q
	if r.p%r.q != 0 && r.p < 0 {
		q--
	}
	return q
}

// Ceil returns ⌈r⌉ as an int64.
func (r Rat) Ceil() int64 {
	r = r.norm()
	q := r.p / r.q
	if r.p%r.q != 0 && r.p > 0 {
		q++
	}
	return q
}

// Max returns the larger of r and s.
func (r Rat) Max(s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r.norm()
	}
	return s.norm()
}

// Min returns the smaller of r and s.
func (r Rat) Min(s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r.norm()
	}
	return s.norm()
}

// Float64 returns the nearest float64 (for display only; accounting stays
// exact).
func (r Rat) Float64() float64 {
	r = r.norm()
	return float64(r.p) / float64(r.q)
}

// String renders "p/q", or "p" when the value is an integer.
func (r Rat) String() string {
	r = r.norm()
	if r.q == 1 {
		return strconv.FormatInt(r.p, 10)
	}
	return strconv.FormatInt(r.p, 10) + "/" + strconv.FormatInt(r.q, 10)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func mulCheck(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a {
		panic(fmt.Sprintf("rat: multiplication overflow %d*%d", a, b))
	}
	return c
}

func addCheck(a, b int64) int64 {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		panic(fmt.Sprintf("rat: addition overflow %d+%d", a, b))
	}
	return c
}
