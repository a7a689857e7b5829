package contract

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestOneEngineSwitch holds the premise Engine's flip rests on: no file
// of the module but contract.go assigns machine.FastPathDefault, and no
// test calls t.Parallel. Nested modules (bench/) are separate test
// processes and are not walked.
func TestOneEngineSwitch(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("contract.go")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			rel, _ := filepath.Rel(root, path)
			at := func(n ast.Node) string { return fmt.Sprintf("%s:%d", rel, fset.Position(n.Pos()).Line) }
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if path != self && isEngineSwitch(lhs, f.Name.Name) {
							t.Errorf("%s: assigns machine.FastPathDefault; flip engines with a contract.Engine row", at(lhs))
						}
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parallel" && len(n.Args) == 0 {
						t.Errorf("%s: calls Parallel; contract.Engine's flip is process-wide", at(n))
					}
				}
				return true
			})
		}
	}
	if files < 100 {
		t.Fatalf("walked %d Go files under %s; the module root is wrong", files, root)
	}
}

// isEngineSwitch reports whether e names the engine switch:
// machine.FastPathDefault, or FastPathDefault inside package machine.
func isEngineSwitch(e ast.Expr, pkg string) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "machine" && e.Sel.Name == "FastPathDefault"
	case *ast.Ident:
		return pkg == "machine" && e.Name == "FastPathDefault"
	}
	return false
}

// packageDirs lists the directories of root's module that hold Go
// files, as the go command sees the module: it skips testdata, dot and
// underscore directories and nested modules (bench/ is one).
// TestOneEngineSwitch and TestNoTestOnlyExports both walk it.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_' || isModule(path)) {
			return filepath.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gofiles) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// isModule reports whether dir holds its own go.mod.
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
