// Package fleet sits at the nowallclock-extension import path
// (.../internal/fleet): it is NOT a deterministic package (no digest or
// wire-record construction happens here), but its retry/backoff/steal
// scheduling must flow through an injected clock, so direct wall-clock
// reads and the global math/rand source are forbidden all the same.
package fleet

import (
	"context"
	"math/rand"
	"time"
)

// clock mirrors live.Clock, which the real coordinator takes as
// Config.Clock.
type clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

// Backoff shows the forbidden shapes: scheduling decisions reading the
// wall clock or the process-global RNG directly.
func Backoff(deadline time.Time) time.Duration {
	start := time.Now()      // want "time.Now in clock-injected package"
	_ = time.Since(start)    // want "time.Since in clock-injected package"
	_ = time.Until(deadline) // want "time.Until in clock-injected package"
	jitter := rand.Intn(100) // want "global rand.Intn in clock-injected package"
	return time.Duration(jitter) * time.Millisecond
}

// Wait shows the legal shapes: time flows through the injected clock,
// and timers (which consume a caller-supplied duration rather than
// reading the clock) stay legal.
func Wait(ctx context.Context, c clock, d time.Duration) error {
	_ = c.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return c.Sleep(ctx, d)
	}
}

// sanctioned shows the one legal escape hatch: a written //aqtlint:allow
// with a reason, mirroring the real SystemClock implementation.
func sanctioned() time.Time {
	//aqtlint:allow nowallclock -- fixture mirror of SystemClock, the one sanctioned wall-clock read
	return time.Now()
}
