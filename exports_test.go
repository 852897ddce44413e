package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnreferencedExports guards the exported surface of internal/: every
// exported top-level identifier (type, func, method, const, var) declared in
// a non-test file there must be named somewhere else in the tree — the root
// module, examples/ or e2ebench/, tests included. References are matched by
// identifier name alone, which can only over-count them, so the guard never
// fails on an identifier that is in use.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}     // identifier occurrences anywhere
	testUses := map[string]int{} // ... in _test.go files
	type export struct {
		name string
		pos  token.Pos
	}
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
				if isTest {
					testUses[id.Name]++
				}
			}
			return true
		})
		if isTest || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				exports = append(exports, export{id.Name, id.Pos()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	testOnly := 0
	for _, e := range exports {
		switch {
		case uses[e.name] == 1: // the declaration itself
			t.Errorf("%s: exported %s is referenced nowhere else", fset.Position(e.pos), e.name)
		case uses[e.name]-testUses[e.name] == 1:
			testOnly++
		}
	}
	t.Logf("%d exported identifiers under internal/, %d referenced only from tests", len(exports), testOnly)
}
