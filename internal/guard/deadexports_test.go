// Package guard holds tests that check the source tree itself rather
// than one package's behaviour.
package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedExports are exported functions and methods under internal/ that
// no non-test code outside their file references, each with the reason it
// stays exported. Keys are as deadExports reports them.
var allowedExports = map[string]string{
	"checkpoint.Manager.HistoryFiles": "the core tests list a run's snapshots with it",
	"cluster.pairHeap.Less":           "heap.Interface",
	"cluster.pairHeap.Pop":            "heap.Interface",
	"cluster.pairHeap.Push":           "heap.Interface",
	"grid.Grid.AddFiller":             "AddCellsSoA's filler oracle in the grid and density tests",
	"parallel.WorkerPanic.Unwrap":     "errors.Unwrap, for errors.Is/As through a worker panic",
	"telemetry.DigestsEqual":          "the oracle the core, detail and server tests compare digests with",
	"telemetry.ReadJSONL":             "the trace decoder the telemetry and server tests replay traces with",
	"telemetry.WriteSamplesCSV":       "writes a core.Trace's samples as CSV in the core test",
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
// one dead export it must report, and whose live function, method and
// same-package reference it must not.
func TestNoDeadExportsFindsPlanted(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type T struct{}

func (T) Used()   {}
func Live() T     { return T{} }
func Dead()       {}
func Sibling()    {}
func selfOnly()   { Dead() }
`,
		"internal/p/q.go": "package p\n\nfunc helper() { Sibling() }\n",
		"internal/p/p_test.go": `package p

import "testing"

func TestDead(t *testing.T) { Dead() }
`,
		"cmd/x/main.go": `package main

import q "planted/internal/p"

func main() { q.Live().Used() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(dead, " "); got != "p.Dead" {
		t.Errorf("deadExports on the planted module = %q, want %q", got, "p.Dead")
	}
}

// export is one exported function or method under internal/.
type export struct {
	name string // "pkg.Func" or "pkg.Type.Method", pkg relative to internal/
	file string
	fn   string // the identifier
	pkg  string // import path; empty for a method
}

// deadExports parses every Go file of the module rooted at root (nested
// modules such as benchmark/ included: their code calls the root's) and
// returns, sorted, the exported functions and methods under internal/
// that no non-test file other than their own references. A function
// counts as referenced by a qualified identifier of its package or a bare
// identifier in another file of its package; a method by any selector
// with its name, which can miss a dead method but never flags a live one.
func deadExports(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type parsed struct {
		path, importPath string
		f                *ast.File
	}
	var files []parsed
	pkgName := map[string]string{} // import path -> package name
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
		files = append(files, parsed{path, ip, f})
		pkgName[ip] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	internal := module + "/internal/"
	var exports []export
	for _, pf := range files {
		if !strings.HasPrefix(pf.importPath, internal) {
			continue
		}
		short := strings.TrimPrefix(pf.importPath, internal)
		for _, decl := range pf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			e := export{file: pf.path, fn: fd.Name.Name}
			if fd.Recv == nil {
				e.name, e.pkg = short+"."+fd.Name.Name, pf.importPath
			} else {
				e.name = short + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			exports = append(exports, e)
		}
	}

	// Every file's references: qualified functions as "importpath.Name",
	// bare identifiers as "importpath.Name" of the file's own package, and
	// selector names as ".Name" (a possible method).
	refs := map[string]map[string]bool{} // reference -> files making it
	add := func(ref, file string) {
		if refs[ref] == nil {
			refs[ref] = map[string]bool{}
		}
		refs[ref][file] = true
	}
	for _, pf := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range pf.f.Imports {
			ip, err := strconv.Unquote(is.Path.Value)
			if err != nil {
				return nil, err
			}
			local, ok := pkgName[ip]
			if !ok {
				continue // outside the module
			}
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = ip
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl: // its own name is no reference
				if x.Recv != nil {
					ast.Inspect(x.Recv, visit)
				}
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						add(ip+"."+x.Sel.Name, pf.path)
						return false
					}
				}
				add("."+x.Sel.Name, pf.path)
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				add(pf.importPath+"."+x.Name, pf.path)
			}
			return true
		}
		ast.Inspect(pf.f, visit)
	}

	var dead []string
	for _, e := range exports {
		ref := "." + e.fn
		if e.pkg != "" {
			ref = e.pkg + "." + e.fn
		}
		live := false
		for file := range refs[ref] {
			live = live || file != e.file
		}
		if !live {
			dead = append(dead, e.name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

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
