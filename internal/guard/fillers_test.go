package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFillerInDesign keeps fillers out of the netlist by construction:
// a global placement's fillers live in its compiled view
// (netlist.Compiled.AddFillers), so no non-test file under internal/,
// cmd/ or examples/, outside internal/netlist, may name the
// netlist.Filler kind a Design cell would carry.
func TestNoFillerInDesign(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	uses, err := fillerUses(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uses {
		t.Errorf("%s names netlist.Filler: fillers live in the compiled view, never in a Design", u)
	}
}

// TestNoFillerInDesignFindsPlanted runs the check on a planted module: it
// must report the aliased use under cmd/ and not the uses in the netlist
// package, in a test file or of another package's Filler.
func TestNoFillerInDesignFindsPlanted(t *testing.T) {
	root := t.TempDir()
	plant(t, root, map[string]string{
		"go.mod":                      "module planted\n\ngo 1.22\n",
		"internal/netlist/netlist.go": "package netlist\n\ntype Kind int\n\nconst Filler Kind = 3\n\nvar K = Filler\n",
		"internal/p/p.go":             "package p\n\nconst Filler = 1\n\nvar F = Filler\n",
		"internal/p/p_test.go":        "package p\n\nimport \"planted/internal/netlist\"\n\nvar k = netlist.Filler\n",
		"cmd/x/main.go": `package main

import (
	nl "planted/internal/netlist"
	"planted/internal/p"
)

func main() { _, _ = p.Filler, nl.Filler }
`,
	})
	uses, err := fillerUses(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(uses) != 1 || !strings.Contains(uses[0], filepath.Join("cmd", "x", "main.go")+":8:") {
		t.Errorf("fillerUses on the planted module = %q, want the one in cmd/x/main.go, line 8", uses)
	}
}

// fillerUses lists, as file:line:column, every reference to the netlist
// package's Filler in the non-test Go files of the module rooted at root,
// under internal/, cmd/ and examples/, outside internal/netlist.
func fillerUses(root string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	netlistDir := filepath.Join(root, "internal", "netlist")
	fset := token.NewFileSet()
	var uses []string
	for _, dir := range []string{"internal", "cmd", "examples"} {
		top := filepath.Join(root, dir)
		if _, err := os.Stat(top); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(top, func(path string, e fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case e.IsDir() && path == netlistDir:
				return filepath.SkipDir
			case e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			name := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"`+mod+`/internal/netlist"` {
					name = "netlist"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Filler" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						uses = append(uses, fset.Position(sel.Pos()).String())
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return uses, nil
}
