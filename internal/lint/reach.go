package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// digestRootRE matches the names of functions that begin a digest or
// canonical-wire path: content addressing (RecordsDigest, Scenario.Digest),
// canonical marshalling (Marshal, appendCanonical, JSONMap, label),
// wire-record construction (Record/Records, Summarize, Merge, and the
// metric fold's methods, matched by receiver-qualified name: Fold.Add,
// Fold.Map), and parameter canonicalization (Resolve).
// Everything statically reachable from such a function inside its package
// is "digest path" for detmap, nofloat, and hasherr.
var digestRootRE = regexp.MustCompile(
	`Digest|digest|Canonical|canonical|Summarize|^Fold\.|` +
		`^(Marshal|MarshalJSON|Merge|MergeAll|Record|Records|RecordsSorted|JSONMap|Resolve|label)$`)

// funcsOf indexes the package's function and method declarations by their
// type-checker object.
func funcsOf(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// digestReach returns the set of declarations statically reachable (via
// same-package calls) from any function whose name matches digestRootRE.
func digestReach(pass *Pass) map[*ast.FuncDecl]bool {
	decls := funcsOf(pass)
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	for fn := range decls {
		if d := decls[fn]; digestRootRE.MatchString(fn.Name()) || d.Recv != nil && digestRootRE.MatchString(declName(d)) {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || reached[callee] {
				return true
			}
			if _, local := decls[callee]; local {
				reached[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}
	out := map[*ast.FuncDecl]bool{}
	for fn := range reached {
		if d := decls[fn]; d != nil {
			out[d] = true
		}
	}
	return out
}

// deterministicPackages names the directories whose packages carry the
// determinism contract: no wall clock, no global rand, seeds must flow
// from the keyed derivation. Service, CLI, rendering, and experiment
// driver code is deliberately absent.
var deterministicPackages = map[string]bool{
	"sim": true, "faults": true, "harness": true, "metrics": true,
	"scenario": true, "registry": true, "adversary": true, "core": true,
	"buffer": true, "rat": true,
}

// isDeterministicPkg reports whether the import path is one of the
// packages under the determinism contract: an "internal/" path whose
// final element is in deterministicPackages.
func isDeterministicPkg(path string) bool {
	return internalPkgIn(path, deterministicPackages)
}

// wallClockPackages extends ONLY the nowallclock scope beyond the
// deterministic set. The fleet coordinator and the live observation
// tier are deliberately not deterministic packages — their views carry
// wall-clock durations and their digests come from the daemons, so
// nofloat/detmap/seedflow have nothing to enforce there — but their
// retry, backoff, steal, snapshot-timestamp, and poll-pacing decisions
// must never read the wall clock directly: all time flows through the
// injected live.Clock (fleet.Config.Clock), so tests can drive schedules
// deterministically. internal/live carries the one sanctioned
// time.Now, behind an explicit allow directive in SystemClock.
var wallClockPackages = map[string]bool{
	"fleet": true,
	"live":  true,
}

// isWallClockPkg reports whether nowallclock covers the import path: the
// deterministic packages plus the wallClockPackages extension.
func isWallClockPkg(path string) bool {
	return isDeterministicPkg(path) || internalPkgIn(path, wallClockPackages)
}

// internalPkgIn reports whether path is an "internal/" import path whose
// final element is in the given set.
func internalPkgIn(path string, set map[string]bool) bool {
	i := strings.LastIndex(path, "internal/")
	if i < 0 {
		return false
	}
	rest := path[i+len("internal/"):]
	return set[rest]
}

// calleeOf resolves a call expression to the invoked function or method,
// if it is statically known.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPathOf returns the import path of the package a function belongs to
// ("" for builtins).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
