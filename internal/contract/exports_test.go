package contract

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// testOnlyExports are the exports under internal/ that
// TestNoTestOnlyExports lets through although no non-test file uses
// them. The list may only shrink: a new export earns a production
// caller, or it stays unexported.
var testOnlyExports = map[string]string{
	"contract.Check":      "the contract harness's entry point; only tests run rows",
	"contract.EachEngine": "the contract harness's producer for per-engine output",
	"contract.Point.On":   "the contract harness's toggle test inside a producer",
	"contract.Toggle":     "the contract harness's two-valued axis",
	"benchlab.RunScenarioMatrix": "the scenario matrix's test entry point; " +
		"its pass/fail verdict is a test, not a published table",
	"benchlab.(*MatrixReport).WriteText": "prints the scenario matrix when its test fails",
}

// TestNoTestOnlyExports fails when an exported func, method, const or
// var declared at package level in a non-test file under internal/ is
// never used by a non-test file of internal/, cmd/, examples/ or the
// bench module. Declarations and uses are matched by go/types object,
// so a same-named func, field or local elsewhere does not count, and a
// method counts as used when it satisfies an interface the program
// uses.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, m := range []struct{ path, dir string }{{"repro", root}, {"repro/bench", filepath.Join(root, "bench")}} {
		dirs, err := packageDirs(m.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			rel, _ := filepath.Rel(m.dir, dir)
			path := filepath.ToSlash(filepath.Join(m.path, rel))
			for _, scope := range []string{"repro/internal/", "repro/cmd/", "repro/examples/", "repro/bench"} {
				if strings.HasPrefix(path, scope) {
					pkgs = append(pkgs, path)
					break
				}
			}
		}
	}
	start := time.Now()
	s := newExportScan(map[string]string{"repro": root, "repro/bench": filepath.Join(root, "bench")})
	unused, declared, err := s.unusedExports(pkgs, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d packages, %d exports checked in %v", len(pkgs), declared, time.Since(start).Round(time.Millisecond))
	if declared < 300 {
		t.Fatalf("found %d exports under %s/internal; the module root is wrong", declared, root)
	}
	allowed := map[string]bool{}
	for _, u := range unused {
		if _, ok := testOnlyExports[u.name]; ok {
			allowed[u.name] = true
			continue
		}
		rel, _ := filepath.Rel(root, u.pos.Filename)
		t.Errorf("%s:%d: exported %s has no use outside tests; give it one, move it into export_test.go or delete it", rel, u.pos.Line, u.name)
	}
	for name := range testOnlyExports {
		if !allowed[name] {
			t.Errorf("testOnlyExports lists %s, which is gone or now has a use outside tests; remove its line", name)
		}
	}
}

// TestUnusedExportsFixture runs the check's core over a small module in
// testdata/exports: a method whose name another package also declares
// and uses, a method only an interface reaches, and an unused const.
func TestUnusedExportsFixture(t *testing.T) {
	dir, err := filepath.Abs("testdata/exports")
	if err != nil {
		t.Fatal(err)
	}
	s := newExportScan(map[string]string{"fixture": dir})
	unused, _, err := s.unusedExports([]string{"fixture/a", "fixture/b"}, "fixture/")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.name)
	}
	want := []string{"a.(*Queue).Len", "a.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("unused exports = %q, want %q", got, want)
	}
}

// exportScan type-checks the non-test files of a set of modules with
// one importer, so each declaration and each of its uses resolve to the
// same types.Object. Standard-library imports are type-checked from
// source.
type exportScan struct {
	fset    *token.FileSet
	std     types.Importer
	modules map[string]string // module path → root directory
	pkgs    map[string]*scannedPkg
}

type scannedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// export is one exported declaration.
type export struct {
	pos  token.Position
	name string // e.g. core.(*Platform).Reload
}

func newExportScan(modules map[string]string) *exportScan {
	fset := token.NewFileSet()
	return &exportScan{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modules: modules,
		pkgs:    map[string]*scannedPkg{},
	}
}

// Import resolves a module package to its scanned copy and anything
// else to the standard library.
func (s *exportScan) Import(path string) (*types.Package, error) {
	p, err := s.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return s.std.Import(path)
	}
	return p.pkg, nil
}

// load type-checks the module package at path once; it returns nil for
// a path outside every module.
func (s *exportScan) load(path string) (*scannedPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	mod := ""
	for m := range s.modules {
		if (path == m || strings.HasPrefix(path, m+"/")) && len(m) > len(mod) {
			mod = m
		}
	}
	if mod == "" {
		return nil, nil
	}
	dir := filepath.Join(s.modules[mod], filepath.FromSlash(strings.TrimPrefix(path, mod)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &scannedPkg{pkg: pkg, info: info}
	s.pkgs[path] = p
	return p, nil
}

// unusedExports type-checks the packages at paths and returns, in
// source order, each export declared in a package under declPrefix
// that none of them uses, with the number of exports checked. An
// export is a package-level func, const or var, or a method of a
// package-level named type, whose name is exported.
func (s *exportScan) unusedExports(paths []string, declPrefix string) ([]export, int, error) {
	used := map[types.Object]bool{}
	// The standard library calls two methods through interfaces of its
	// own at run time: fmt's verbs call String, and errors.Is and
	// errors.As call Unwrap.
	ifaces := map[types.Type]bool{
		protocol("String", types.Typ[types.String]):               true,
		protocol("Unwrap", types.Universe.Lookup("error").Type()): true,
	}
	var decls []types.Object
	for _, path := range paths {
		p, err := s.load(path)
		if err != nil {
			return nil, 0, err
		}
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		for _, tv := range p.info.Types {
			if types.IsInterface(tv.Type) {
				ifaces[tv.Type] = true
			}
		}
		if !strings.HasPrefix(path, declPrefix) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func, *types.Const, *types.Var:
				if obj.Exported() {
					decls = append(decls, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						decls = append(decls, m)
					}
				}
			}
		}
	}
	var out []export
	for _, obj := range decls {
		if used[obj] || satisfies(obj, ifaces) {
			continue
		}
		out = append(out, export{s.fset.Position(obj.Pos()), exportName(obj)})
	}
	slices.SortFunc(out, func(a, b export) int {
		if c := strings.Compare(a.pos.Filename, b.pos.Filename); c != 0 {
			return c
		}
		return a.pos.Offset - b.pos.Offset
	})
	return out, len(decls), nil
}

// satisfies reports whether obj is a method that implements a method of
// one of ifaces: the program can call it through that interface.
func satisfies(obj types.Object, ifaces map[types.Type]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	// The pointer's method set holds the value's: a method counts
	// whether the program converts T or *T.
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for iface := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); m != nil &&
			types.Implements(t, iface.Underlying().(*types.Interface)) {
			return true
		}
	}
	return false
}

// protocol is the interface of one method that takes nothing and
// returns a result.
func protocol(name string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// exportName renders obj as pkg.Name or pkg.(*Recv).Name.
func exportName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		recv := types.TypeString(fn.Type().(*types.Signature).Recv().Type(), func(*types.Package) string { return "" })
		if strings.HasPrefix(recv, "*") {
			recv = "(" + recv + ")"
		}
		name += recv + "."
	}
	return name + obj.Name()
}
