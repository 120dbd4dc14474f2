// Package guard holds tests that check the source tree itself rather
// than one package's behaviour.
package guard

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedExports are exported functions and methods under internal/ that
// no non-test code outside their file references, each with the reason it
// stays exported. Keys are as deadExports reports them.
var allowedExports = map[string]string{
	"geom.Rect.String":            "fmt.Stringer: error messages print rectangles with %v",
	"grid.Grid.AddFiller":         "AddCellsSoA's filler oracle in the grid and density tests",
	"netlist.Kind.String":         "fmt.Stringer: the experiments' layout CSV writes cell kinds with %s",
	"netlist.Stats.String":        "fmt.Stringer: the CLIs print a design's stats with %s",
	"parallel.WorkerPanic.Unwrap": "errors.Unwrap, for errors.Is/As through a worker panic",
	"telemetry.DigestsEqual":      "the oracle the core, detail and server tests compare digests with",
	"telemetry.ReadJSONL":         "the trace decoder the telemetry and server tests replay traces with",
	"telemetry.WriteSamplesCSV":   "writes a core.Trace's samples as CSV in the core test",
}

// TestNoDeadExports: every exported function and method under internal/
// has a non-test reference outside the file that declares it, or an
// allowedExports line saying why it stays exported.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if _, ok := allowedExports[name]; !ok {
			t.Errorf("%s: exported, but no non-test code outside its file references it; delete or unexport it", name)
		}
	}
	for name := range allowedExports {
		if !found[name] {
			t.Errorf("allowedExports lists %s, which is gone or referenced now; drop the line", name)
		}
	}
}

// TestNoDeadExportsFindsPlanted runs the guard on a planted module whose
// three dead exports it must report, among them two methods named like
// live ones, and whose live function, methods (one called through an
// interface, one only through a type parameter) and same-package
// reference it must not. H.Generic satisfies the parameter's constraint
// but H is never a type argument, so it stays dead.
func TestNoDeadExportsFindsPlanted(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type T struct{}
type U struct{}
type V struct{}

func (T) Used()    {}
func (U) Used()    {}
func (V) Viaface() {}
func Live() T      { return T{} }
func Dead()        {}
func Sibling()     {}
func selfOnly()    { Dead() }

type G struct{}
type H struct{}

func (G) Generic() {}
func (H) Generic() {}
`,
		"internal/p/q.go": "package p\n\nfunc helper() { Sibling() }\n",
		"internal/p/r.go": "package p\n\ntype viaface interface{ Viaface() }\n\nfunc Call(x viaface) { x.Viaface() }\n",
		"internal/p/box.go": `package p

type generic interface{ Generic() }

type Box[P generic] struct{ x P }

func NewBox[P generic](x P) Box[P] { return Box[P]{x} }
func (b Box[P]) Run()              { b.x.Generic() }
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestDead(t *testing.T) { Dead() }
`,
		"cmd/x/main.go": `package main

import q "planted/internal/p"

func main() { q.Live().Used(); q.Call(q.V{}); q.NewBox(q.G{}).Run() }
`,
	}
	plant(t, root, files)
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(dead, " "), "p.Dead p.H.Generic p.U.Used"; got != want {
		t.Errorf("deadExports on the planted module = %q, want %q", got, want)
	}
}

// plant writes files, keyed by slash-separated paths relative to root.
func plant(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// export is one exported function or method under internal/.
type export struct {
	name string // "pkg.Func" or "pkg.Type.Method", pkg relative to internal/
	file string
	obj  *types.Func
}

// deadExports type-checks every non-test Go file of the module rooted at
// root (loadModule) and returns, sorted, the exported functions and methods under
// internal/ that no non-test file other than their own references. A
// reference is a use the type checker resolves to the declaration
// itself, so a method is told apart from every other method of its name
// by its receiver type. A method is also live when a file other than
// its own calls an interface method of the same name that its type
// implements; calls made only from the standard library (sort.Sort,
// container/heap, fmt's Stringer) do not count. A call through a type
// parameter is not an interface call: it makes a method live when the
// tree instantiates that parameter, directly or through other type
// parameters, with the method's type (types.Info.Instances).
func deadExports(root string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	module, fset, files, info, paths := m.path, m.fset, m.files, m.info, m.paths

	internal := module + "/internal/"
	var exports []export
	for _, ip := range paths {
		if !strings.HasPrefix(ip, internal) {
			continue
		}
		short := strings.TrimPrefix(ip, internal)
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				e := export{name: short + "." + fd.Name.Name, file: fset.File(f.Pos()).Name(), obj: info.Defs[fd.Name].(*types.Func)}
				if fd.Recv != nil {
					e.name = short + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				exports = append(exports, e)
			}
		}
	}

	// Methods called through a type parameter, by name: the parameter
	// and the file making the call. These are static calls on whatever
	// the parameter is instantiated with, not interface calls.
	type tpCall struct {
		param *types.TypeParam
		file  string
	}
	tpCalls := map[string][]tpCall{}
	viaParam := map[*ast.Ident]bool{}
	for sel, s := range info.Selections {
		if tp, ok := s.Recv().(*types.TypeParam); ok && s.Kind() == types.MethodVal {
			viaParam[sel.Sel] = true
			tpCalls[sel.Sel.Name] = append(tpCalls[sel.Sel.Name], tpCall{tp, fset.Position(sel.Sel.Pos()).Filename})
		}
	}
	args := typeArgs(info)

	// Every use of a function or method, by the files making it; and the
	// interface methods called, by name.
	refs := map[*types.Func]map[string]bool{}
	ifaceCalls := map[string][]*types.Func{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if refs[fn] == nil {
			refs[fn] = map[string]bool{}
		}
		refs[fn][fset.Position(id.Pos()).Filename] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !viaParam[id] {
			ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], fn)
		}
	}
	usedElsewhere := func(fn *types.Func, file string) bool {
		for f := range refs[fn] {
			if f != file {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, e := range exports {
		live := usedElsewhere(e.obj, e.file)
		if recv := e.obj.Type().(*types.Signature).Recv(); recv != nil && !live {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			for _, im := range ifaceCalls[e.obj.Name()] {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if usedElsewhere(im, e.file) && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
					live = true
					break
				}
			}
			for _, c := range tpCalls[e.obj.Name()] {
				if c.file == e.file {
					continue
				}
				for _, a := range args.concrete(c.param) {
					if types.Identical(a, t) || types.Identical(a, types.NewPointer(t)) {
						live = true
					}
				}
			}
		}
		if !live {
			dead = append(dead, e.name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// typedModule is a module's non-test code, type-checked as one program.
type typedModule struct {
	path  string // the module path
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> files
	paths []string               // the module's import paths, sorted
	info  *types.Info
}

// loaded memoizes loadModule by root: the guards type-check the tree
// once between them.
var loaded = map[string]*typedModule{}

// loadModule parses every non-test Go file of the module rooted at root
// (nested modules such as benchmark/ included: their code calls the
// root's) and type-checks them, the module's packages on first import
// and the standard library's from source, so every package sees one
// object per declaration.
func loadModule(root string) (*typedModule, error) {
	if m := loaded[root]; m != nil {
		return m, nil
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}
	m := &typedModule{path: module, fset: fset, files: files, paths: paths, info: info}
	loaded[root] = m
	return m, nil
}

// paramArgs maps each type parameter of the tree to the type arguments
// it is instantiated with, which may be type parameters themselves.
type paramArgs map[*types.TypeParam][]types.Type

// typeArgs collects the type arguments of every instantiation the type
// checker recorded. A method's receiver declares type parameters of its
// own, so each is recorded as instantiated with the matching parameter
// of its type's declaration.
func typeArgs(info *types.Info) paramArgs {
	args := paramArgs{}
	for id, inst := range info.Instances {
		var params *types.TypeParamList
		switch obj := info.Uses[id].(type) {
		case *types.TypeName:
			if n, ok := obj.Type().(*types.Named); ok {
				params = n.TypeParams()
			}
		case *types.Func:
			params = obj.Type().(*types.Signature).TypeParams()
		}
		for i := 0; i < params.Len() && i < inst.TypeArgs.Len(); i++ {
			args[params.At(i)] = append(args[params.At(i)], inst.TypeArgs.At(i))
		}
	}
	for _, obj := range info.Defs {
		n, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := n.Type().(*types.Named)
		if !ok || named.TypeParams().Len() == 0 {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			recv := named.Method(i).Type().(*types.Signature).RecvTypeParams()
			for k := 0; k < recv.Len(); k++ {
				args[recv.At(k)] = append(args[recv.At(k)], named.TypeParams().At(k))
			}
		}
	}
	return args
}

// concrete returns the types that are not type parameters which tp is
// instantiated with, directly or through other type parameters.
func (args paramArgs) concrete(tp *types.TypeParam) []types.Type {
	var out []types.Type
	seen := map[*types.TypeParam]bool{}
	var walk func(*types.TypeParam)
	walk = func(tp *types.TypeParam) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, a := range args[tp] {
			if p, ok := a.(*types.TypeParam); ok {
				walk(p)
			} else {
				out = append(out, a)
			}
		}
	}
	walk(tp)
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", os.ErrNotExist
}
