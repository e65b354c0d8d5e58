package smallbuffers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsHaveCallers keeps the facade to the API its programs
// use. An exported top-level name of smallbuffers.go passes if a non-test
// file under cmd/ or examples/ names it as sb.<Name>, or if it appears
// unqualified in the declaration of another export that passes (a type a
// kept signature names).
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "smallbuffers.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]ast.Node{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = s
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = s
						}
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if decls[name] != nil && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, name := range facadeSelectors(f) {
				keep(name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// An export that a kept declaration names unqualified is kept too. A
	// selector's Sel belongs to another package, so only its X is searched.
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			keep(n.Name)
		}
		return true
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[name], visit)
	}

	var orphans []string
	for name := range decls {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d of %d facade exports have no caller in a non-test file under cmd/ or examples/; add a caller or delete the export: %s",
			len(orphans), len(decls), strings.Join(orphans, ", "))
	}
}

// facadeSelectors returns the names f selects from the smallbuffers
// package, under whatever name f imports it.
func facadeSelectors(f *ast.File) []string {
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "smallbuffers" {
			pkg = "smallbuffers"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				names = append(names, sel.Sel.Name)
			}
		}
		return true
	})
	return names
}
