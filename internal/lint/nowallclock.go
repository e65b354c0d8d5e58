package lint

import (
	"go/ast"
)

// NoWallClock forbids wall-clock reads and the global math/rand source in
// the deterministic packages (internal/{sim,faults,harness,metrics,
// scenario,registry,adversary,core,buffer,rat}) and, beyond them, in
// internal/fleet and internal/live (wallClockPackages): the
// coordinator's retry, backoff, and steal logic and the live tier's
// snapshot timestamps and poll pacing must draw all time from the
// injected live.Clock (fleet.Config.Clock) so schedules replay
// deterministically under test. The single sanctioned time.Now lives in
// live.SystemClock behind an explicit allow directive. Wall-clock
// values and process-global RNG state are exactly the inputs that vary
// across runs, machines, and worker counts — nothing on a simulation,
// digest, wire-record, or scheduling-decision path may observe them.
// Service and CLI layers are outside the contract and free to use both.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "no time.Now/time.Since or global math/rand in deterministic packages or internal/{fleet,live}",
	Run:  runNoWallClock,
}

// rngConstructors are the math/rand functions that build *explicitly
// seeded* sources and are therefore legal under nowallclock (seedflow
// separately vets where their seeds come from).
var rngConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoWallClock(pass *Pass) error {
	if !isWallClockPkg(pass.Pkg.Path()) {
		return nil
	}
	// Wording tracks why the package is in scope: the deterministic
	// packages carry the full replay contract; the wallClockPackages
	// extension (fleet, live) is in scope because its scheduling and
	// snapshot timestamps must flow through an injected clock.
	scope := "deterministic package"
	if !isDeterministicPkg(pass.Pkg.Path()) {
		scope = "clock-injected package"
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Info, call)
			if fn == nil {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(), "time.%s in %s %s; wall-clock reads break replay determinism", fn.Name(), scope, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				sig := fn.Signature()
				if sig != nil && sig.Recv() != nil {
					return true // methods on an explicitly seeded *Rand are fine
				}
				if !rngConstructors[fn.Name()] {
					pass.Reportf(call.Pos(), "global rand.%s in %s %s; use an explicitly seeded source derived from the cell seed", fn.Name(), scope, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
