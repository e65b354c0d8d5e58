package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// SeedFlow vets where RNG seeds come from in the deterministic packages.
// Every random decision in a run must trace back to the cell's seed
// (harness.Cell.Seed → adversary constructors, faults.NewStream's
// domain-tagged splitmix64): that is what makes digests identical at any
// worker count and fault schedules nested across drop probabilities.
//
// A call to rand.NewSource / rand.New / rand.NewPCG / rand.NewChaCha8, or
// a reseed through Seed ((*rand.Rand).Seed, as a pooled generator is
// reused), is therefore only legal when its seed argument visibly flows
// from outside the function (a parameter, or a field of one — the caller
// got it from the cell) or from a keyed derivation helper (a callee whose
// name matches derive/mix/split/stream/fold/seed). Literal seeds, package
// state, and locally invented values are flagged.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "RNG construction must derive seeds from the keyed cell-seed hash, never ad hoc",
	Run:  runSeedFlow,
}

// seedDeriverRE matches the names of functions trusted to derive seeds
// from the keyed cell-seed hash.
var seedDeriverRE = regexp.MustCompile(`(?i)derive|mix|split|stream|fold|seed`)

// seededConstructors are the rand functions and methods whose argument
// is (or wraps) a seed.
var seededConstructors = map[string]bool{
	"NewSource": true, "New": true, "NewPCG": true, "NewChaCha8": true, "Seed": true,
}

func runSeedFlow(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, decl := range funcsOf(pass) {
		if decl.Body == nil {
			continue
		}
		params := paramObjects(pass, decl)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pass.Info, call)
			if callee == nil {
				return true
			}
			pkg := pkgPathOf(callee)
			if (pkg != "math/rand" && pkg != "math/rand/v2") || !seededConstructors[callee.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if !seedFlows(pass, params, arg) {
					pass.Reportf(call.Pos(), "ad-hoc seed for rand.%s in deterministic package %s; derive it from the keyed cell-seed hash (or flow it in as a parameter)", callee.Name(), pass.Pkg.Path())
					return false
				}
			}
			return true
		})
	}
	return nil
}

// paramObjects collects the objects bound to a declaration's parameters
// and receiver.
func paramObjects(pass *Pass, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	collect(decl.Recv)
	collect(decl.Type.Params)
	return out
}

// seedFlows reports whether the expression's value visibly derives from a
// flowed-in seed: it mentions a parameter (directly or through field
// selection and integer conversions), or calls a derivation helper.
// Nested rand constructors (rand.New(rand.NewSource(seed))) recurse: the
// inner call is vetted on its own, so the outer argument passes.
func seedFlows(pass *Pass, params map[types.Object]bool, e ast.Expr) bool {
	ok := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil && params[obj] {
				ok = true
				return false
			}
		case *ast.CallExpr:
			if callee := calleeOf(pass.Info, x); callee != nil {
				if seedDeriverRE.MatchString(callee.Name()) {
					ok = true
					return false
				}
				if p := pkgPathOf(callee); (p == "math/rand" || p == "math/rand/v2") && seededConstructors[callee.Name()] {
					// The nested constructor's own argument is checked at
					// its own call site.
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}
