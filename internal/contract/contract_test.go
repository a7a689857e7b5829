package contract

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
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
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name[0] == '.' || name[0] == '_' || isModule(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files under %s; the module root is wrong", files, root)
	}
}

// testOnlyExports are the exported funcs and methods under internal/
// that TestNoTestOnlyExports lets through although no non-test file
// names them. The list may only shrink: a new export earns a
// production caller, or it stays unexported.
var testOnlyExports = map[string]bool{
	// Interface methods the interface's users call through it.
	"LocalAddr": true, "RemoteAddr": true, "Network": true, "Unwrap": true,
	// The contract harness's own API, which only tests call.
	"Check": true, "EachEngine": true, "On": true, "Toggle": true,
	// Not audited yet (ROADMAP.md, "No export that only tests call"):
	// each gains a production caller, moves into its package's
	// export_test.go, or goes with the behaviour only its test reaches.
	"RunScenarioMatrix": true, // benchlab
	"Observability":     true, // core.Platform
	"ContainsRange":     true, // eampu.Region
	"LiveCount":         true, // loader.Allocator
	"ReadBytes":         true, // machine.Machine
	"Period":            true, // machine.Timer
	"IDTHandler":        true, // machine.Machine
	"InstallTask":       true, // rtos.Kernel
	"HasErrors":         true, // sverify.Report
	"DefiniteErrors":    true, // sverify.Report
	"IsSigned":          true, // telf
	"LoadSize":          true, // telf.Image
	"ScrapePrometheus":  true, // trace
	"Slots":             true, // trusted.Storage
}

// TestNoTestOnlyExports fails when an exported func or method declared
// in a non-test file under internal/ is never named in a non-test file
// of internal/, cmd/, examples/ or bench/. It matches by name only, so
// a use of the same name anywhere counts, and it can only under-report.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := map[string]string{} // name → first declaration site
	named := map[string]bool{}
	for _, dir := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || name[0] == '.' || name[0] == '_' {
					return filepath.SkipDir
				}
				return nil
			}
			if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			decls := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fn.Name] = true
				if dir == "internal" && fn.Name.IsExported() {
					if _, ok := declared[fn.Name.Name]; !ok {
						rel, _ := filepath.Rel(root, path)
						declared[fn.Name.Name] = fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					named[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) < 100 {
		t.Fatalf("found %d exported funcs under %s/internal; the module root is wrong", len(declared), root)
	}
	for name, at := range declared {
		if !named[name] && !testOnlyExports[name] {
			t.Errorf("%s: exported %s has no caller outside tests; give it one, move it into export_test.go or delete it", at, name)
		}
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

// isModule reports whether dir holds its own go.mod.
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
