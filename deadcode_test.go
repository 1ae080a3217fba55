package ftsched_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// testOnlyKept lists the exported names under internal/ that no non-test
// file uses and that stay anyway, each with its reason: a test helper shared
// across packages, or a reference implementation that tests compare
// against. Keys are "pkg.Name" or "pkg.Type.Member", with pkg the path below
// internal/. An entry whose name is gone or has gained a non-test user
// fails TestInternalExportsReferenced.
var testOnlyKept = map[string]string{
	"core.Tree.Next":            "the reference switch walk that the runtime and core tests check the compiled dispatcher against",
	"runtime.MustNewDispatcher": "test helper of the runtime, sim and appio tests",
	"serveapi.AllKinds":         "the error taxonomy that the serveapi lockstep test and the client retry test iterate over",
	"utility.MustTable":         "test helper of the model, utility and core tests",
}

// exportClass sorts an exported name declared under internal/ by its users.
type exportClass int

const (
	// live: non-test code outside the name's own declaration uses it.
	live exportClass = iota
	// unreferenced: nothing outside the name's own declaration uses it.
	unreferenced
	// testOnly: only test files use the name.
	testOnly
	// ifaceMethod: a method whose receiver type, T or *T, implements an
	// interface with a method of that name, declared in the module or in an
	// imported standard-library package, so it may be reached through that
	// interface.
	ifaceMethod
)

func (c exportClass) String() string {
	return [...]string{"live", "unreferenced", "test-only", "interface-satisfying"}[c]
}

// TestInternalExportsReferenced type-checks every package of the module,
// perfbench included, and fails on an exported func, method, type, const,
// var or struct field under internal/ that no non-test code uses outside
// the name's own declaration, unless it may be reached through an
// interface or testOnlyKept names it. A method's receiver does not count
// as a use of its type. With -v it logs the non-test Go lines per package
// outside perfbench, and their total.
func TestInternalExportsReferenced(t *testing.T) {
	scan, err := scanModule(os.DirFS("."), "ftsched")
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.classes) < 500 {
		t.Fatalf("only %d exported names found under internal/ — loading broken?", len(scan.classes))
	}
	names := make([]string, 0, len(scan.classes))
	for name := range scan.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var n [4]int
	var viaInterface []string
	for _, name := range names {
		class := scan.classes[name]
		n[class]++
		_, kept := testOnlyKept[name]
		switch {
		case class == ifaceMethod:
			viaInterface = append(viaInterface, name)
		case class == unreferenced:
			t.Errorf("%s: used nowhere outside its own declaration; delete it", name)
		case class == testOnly && !kept:
			t.Errorf("%s: used only by tests; delete it, move it to its package's export_test.go, or keep it in testOnlyKept with a reason", name)
		case class != testOnly && kept:
			t.Errorf("testOnlyKept lists %s, which is %s; drop the entry", name, class)
		}
	}
	for name := range testOnlyKept {
		if _, ok := scan.classes[name]; !ok {
			t.Errorf("testOnlyKept lists %s, which internal/ no longer exports; drop the entry", name)
		}
	}
	t.Logf("exported names under internal/: %d live, %d interface-satisfying, %d test-only, %d unreferenced",
		n[live], n[ifaceMethod], n[testOnly], n[unreferenced])
	t.Logf("interface-satisfying: %s", strings.Join(viaInterface, " "))

	dirs := make([]string, 0, len(scan.lines))
	total := 0
	for dir, lines := range scan.lines {
		dirs = append(dirs, dir)
		total += lines
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		t.Logf("non-test Go lines: %6d  %s", scan.lines[dir], dir)
	}
	t.Logf("non-test Go lines: %6d  total outside perfbench", total)
}

// TestExportClassifier runs the classifier on a small in-memory module with
// names of each class, among them a method reached only through an
// interface, a method that shares a name and signature with an interface
// method but whose type implements no interface, and a generic func, field
// and method used only as instances.
func TestExportClassifier(t *testing.T) {
	src := map[string]string{
		"go.mod": "module m\n",
		"internal/a/shape.go": `package a

type Shape interface{ Area() float64 }

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

type Named interface {
	Name() string
	Rank() int
}

func Best(ns []Named) string {
	best := ns[0]
	for _, n := range ns {
		if n.Rank() > best.Rank() {
			best = n
		}
	}
	return best.Name()
}
`,
		"internal/a/a.go": `package a

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func Dead() {}

func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

type Orphan struct{}

func (Orphan) Error() string { return "" }

func ForTests() int { return 1 }

func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

type Box[T any] struct{ V T }

func (Box[T]) Len() int { return 1 }

type Tag struct{}

func (Tag) Name() string { return "tag" }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestForTests(t *testing.T) {
	if ForTests() != 1 {
		t.Fatal()
	}
}
`,
		"cmd/main.go": `package main

import "m/internal/a"

func main() {
	b := a.Box[int]{V: 3}
	println(a.Total([]a.Shape{a.Square{Side: 2}}), a.Max(1, 2), b.V, b.Len(), a.Best(nil), a.Tag{} == a.Tag{})
}
`,
	}
	fsys := fstest.MapFS{}
	for name, text := range src {
		fsys[name] = &fstest.MapFile{Data: []byte(text)}
	}
	scan, err := scanModule(fsys, "m")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]exportClass{
		"a.Shape":        live,
		"a.Shape.Area":   live,
		"a.Square":       live,
		"a.Square.Side":  live,
		"a.Square.Area":  ifaceMethod,
		"a.Total":        live,
		"a.Dead":         unreferenced,
		"a.Loop":         unreferenced, // recursion is no use
		"a.Orphan":       unreferenced, // nor is a method receiver
		"a.Orphan.Error": ifaceMethod,
		"a.ForTests":     testOnly,
		"a.Max":          live,
		"a.Box":          live,
		"a.Box.V":        live,
		"a.Box.Len":      live,
		"a.Named":        live,
		"a.Named.Name":   live,
		"a.Named.Rank":   live,
		"a.Best":         live,
		"a.Tag":          live,
		"a.Tag.Name":     unreferenced, // Named wants Rank too
	}
	for name, class := range want {
		if got, ok := scan.classes[name]; !ok || got != class {
			t.Errorf("%s: got %v (found %v), want %v", name, got, ok, class)
		}
	}
	if len(scan.classes) != len(want) {
		t.Errorf("classified %v, want exactly the names of %v", scan.classes, want)
	}
	if want := strings.Count(src["internal/a/a.go"]+src["internal/a/shape.go"], "\n"); scan.lines["internal/a"] != want {
		t.Errorf("counted %d lines in internal/a", scan.lines["internal/a"])
	}
}

// moduleScan is the result of scanModule.
type moduleScan struct {
	classes map[string]exportClass // by "pkg.Name" or "pkg.Type.Member"
	lines   map[string]int         // non-test Go lines per directory, outside perfbench
}

// goPackage holds the parsed files of one directory.
type goPackage struct {
	files  []*ast.File // non-test files
	tests  []*ast.File // _test.go files of the same package
	xtests []*ast.File // _test.go files of the external test package
}

// scanModule parses the Go packages in fsys, whose root holds module mod,
// type-checks them with the standard library loaded from source, and
// classifies every exported name declared under mod/internal/.
func scanModule(fsys fs.FS, mod string) (*moduleScan, error) {
	l := &loader{
		fset:      token.NewFileSet(),
		mod:       mod,
		pkgs:      map[string]*goPackage{},
		checked:   map[string]*types.Package{},
		self:      map[token.Pos][2]token.Pos{},
		receivers: map[token.Pos]bool{},
		info:      &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	scan := &moduleScan{classes: map[string]exportClass{}, lines: map[string]int{}}
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := path.Base(name)
		if d.IsDir() {
			if name != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		dir := path.Dir(name)
		isTest := strings.HasSuffix(base, "_test.go")
		if !isTest && dir != "perfbench" && !strings.HasPrefix(dir, "perfbench/") {
			scan.lines[dir] += bytes.Count(src, []byte("\n"))
		}
		f, err := parser.ParseFile(l.fset, name, src, 0)
		if err != nil {
			return err
		}
		importPath := mod
		if dir != "." {
			importPath += "/" + dir
		}
		p := l.pkgs[importPath]
		if p == nil {
			p = &goPackage{}
			l.pkgs[importPath] = p
		}
		switch {
		case !isTest:
			p.files = append(p.files, f)
			l.recordDecls(f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if len(l.pkgs[p].files) > 0 {
			if _, err := l.Import(p); err != nil {
				return nil, err
			}
		}
	}
	used := l.uses(l.info)
	testUsed := l.uses(l.testInfo(paths))
	ifaces := l.interfaceMethods()

	prefix := mod + "/internal/"
	for _, p := range paths {
		pkg := l.checked[p]
		if pkg == nil || !strings.HasPrefix(p, prefix) {
			continue
		}
		rel := strings.TrimPrefix(p, prefix) + "."
		classify := func(key string, obj types.Object, method bool) {
			class := live
			switch {
			case used[obj.Pos()]:
			case method && ifaces.satisfies(obj.(*types.Func)):
				class = ifaceMethod
			case testUsed[obj.Pos()]:
				class = testOnly
			default:
				class = unreferenced
			}
			scan.classes[rel+key] = class
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				classify(name, obj, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					classify(name+"."+m.Name(), m, true)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						classify(name+"."+f.Name(), f, false)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						classify(name+"."+m.Name(), m, false)
					}
				}
			}
		}
	}
	return scan, nil
}

// loader type-checks the module's packages on demand; it is the
// types.Importer of every check, handing out the standard library from std.
type loader struct {
	fset    *token.FileSet
	mod     string
	std     types.Importer
	pkgs    map[string]*goPackage
	checked map[string]*types.Package // non-test packages
	info    *types.Info               // of every non-test check

	self      map[token.Pos][2]token.Pos // declaration extent by name position
	receivers map[token.Pos]bool         // identifiers in method receivers
}

func (l *loader) Import(importPath string) (*types.Package, error) {
	if pkg, ok := l.checked[importPath]; ok {
		return pkg, nil
	}
	p, ok := l.pkgs[importPath]
	if !ok || len(p.files) == 0 {
		if importPath == l.mod || strings.HasPrefix(importPath, l.mod+"/") {
			return nil, fmt.Errorf("no Go files for %s", importPath)
		}
		return l.std.Import(importPath)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, p.files, l.info)
	if err != nil {
		return nil, err
	}
	l.checked[importPath] = pkg
	return pkg, nil
}

// testInfo type-checks each package together with its tests, then its
// external test package against that, and returns the combined uses. Type
// errors are ignored: an external test may see two copies of a package its
// dependencies import, and files that build tags keep apart (race_on and
// race_off) are checked together; neither hides the names a test uses.
func (l *loader) testInfo(paths []string) *types.Info {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	ignore := func(error) {}
	for _, importPath := range paths {
		p := l.pkgs[importPath]
		under := l.checked[importPath]
		if len(p.tests) > 0 {
			conf := types.Config{Importer: l, Error: ignore}
			under, _ = conf.Check(importPath, l.fset, append(append([]*ast.File{}, p.files...), p.tests...), info)
		}
		if len(p.xtests) > 0 {
			conf := types.Config{Importer: importerFunc(func(q string) (*types.Package, error) {
				if q == importPath && under != nil {
					return under, nil
				}
				return l.Import(q)
			}), Error: ignore}
			conf.Check(importPath+"_test", l.fset, p.xtests, info) // errors ignored, as above
		}
	}
	return info
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(importPath string) (*types.Package, error) { return f(importPath) }

// recordDecls notes the extent of each top-level declaration in f and the
// identifiers of each method receiver, whose uses do not count.
func (l *loader) recordDecls(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			l.self[d.Name.Pos()] = [2]token.Pos{d.Pos(), d.End()}
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.receivers[id.Pos()] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					l.self[s.Name.Pos()] = [2]token.Pos{s.Pos(), s.End()}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						l.self[n.Pos()] = [2]token.Pos{s.Pos(), s.End()}
					}
				}
			}
		}
	}
}

// uses returns the declaration positions of the objects info records a use
// of; Uses holds the selected member of every selector expression too. An
// instance of a generic func, method or field has the position of
// its origin, so keying by position maps it back. A use inside the
// object's own declaration (recursion, a self-referencing type) or naming a
// method's receiver type does not count.
func (l *loader) uses(info *types.Info) map[token.Pos]bool {
	used := map[token.Pos]bool{}
	mark := func(at token.Pos, obj types.Object) {
		if obj == nil || obj.Pkg() == nil || l.receivers[at] {
			return
		}
		if r, ok := l.self[obj.Pos()]; ok && r[0] <= at && at < r[1] {
			return
		}
		used[obj.Pos()] = true
	}
	for id, obj := range info.Uses {
		mark(id.Pos(), obj)
	}
	return used
}

// ifaceSet maps a method name to the interfaces with a method of that name.
type ifaceSet map[string][]*types.Interface

// interfaceMethods collects the methods of every interface type declared in
// the module's non-test files, of the exported interface types of every
// standard-library package they import directly or indirectly, and of error.
func (l *loader) interfaceMethods() ifaceSet {
	set := ifaceSet{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				set[name] = append(set[name], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, obj := range l.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	seen, seenInline := map[*types.Package]bool{}, map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ok := l.checked[pkg.Path()]; !ok {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.checked {
		walk(pkg)
		for _, imp := range pkg.Imports() {
			if _, ok := l.checked[imp.Path()]; !ok && !seenInline[imp] {
				seenInline[imp] = true
				for _, t := range l.inlineInterfaces(imp) {
					add(t)
				}
			}
		}
	}
	return set
}

// inlineInterfaces returns the interface literals written in the non-test
// sources of the standard-library package pkg, such as the
// interface{ Unwrap() error } through which errors.Is and errors.As walk a
// chain.
func (l *loader) inlineInterfaces(pkg *types.Package) []types.Type {
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(pkg.Path()))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []types.Type
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			continue
		}
		file := fset.File(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if ok && len(it.Methods.List) > 0 {
				expr := string(src[file.Offset(it.Pos()):file.Offset(it.End())])
				if tv, err := types.Eval(fset, pkg, token.NoPos, expr); err == nil {
					out = append(out, tv.Type)
				}
			}
			return true
		})
	}
	return out
}

// satisfies reports whether the receiver type of the concrete method m, T
// or *T, implements an interface with a method of m's name.
func (s ifaceSet) satisfies(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range s[m.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
