package guard

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// viewPackages are the packages that place in a compiled view: from
// Compile to the flow's return the view holds the positions, and only
// the flow crosses to the Cell structs (netlist.Compiled, Ownership).
// legalize's checkers read Cell.Rect at the edge, after a Store.
var viewPackages = []string{"qp", "detail", "density", "cluster", "legalize", "core"}

// allowedCellPositions are the functions of viewPackages that may read
// or write a netlist.Cell's X or Y, each with the reason. Keys are as
// cellPositionUses reports them.
var allowedCellPositions = map[string]string{
	"cluster.coarsener.build": "a coarse level is a new design: its cells start at the fine view's positions, and its view compiles from them",
}

// TestNoCellPositionAccess: no non-test code of the packages that place
// in a compiled view reads or writes a netlist.Cell's X or Y outside the
// functions allowedCellPositions names. The flow writes the caller's
// structs through netlist (Compiled.Store) when it returns.
func TestNoCellPositionAccess(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	uses, err := cellPositionUses(root, viewPackages)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, u := range uses {
		found[u.fn] = true
		if _, ok := allowedCellPositions[u.fn]; !ok {
			t.Errorf("%s: %s uses netlist.Cell.%s; the compiled view holds the positions", u.pos, u.fn, u.field)
		}
	}
	for fn := range allowedCellPositions {
		if !found[fn] {
			t.Errorf("allowedCellPositions lists %s, which uses no Cell position now; drop the line", fn)
		}
	}
}

// TestNoCellPositionAccessFindsPlanted runs the check on a planted
// module: it must report the write through an aliased import, the read
// and the keyed literal in the view package, and not the uses in a test
// file, in a package outside the list, or of another type's X.
func TestNoCellPositionAccessFindsPlanted(t *testing.T) {
	root := t.TempDir()
	plant(t, root, map[string]string{
		"go.mod":                      "module planted\n\ngo 1.22\n",
		"internal/netlist/netlist.go": "package netlist\n\ntype Cell struct{ X, Y, W float64 }\n\nfunc Move(c *Cell) { c.X = 1 }\n",
		"internal/core/core.go": `package core

import nl "planted/internal/netlist"

type point struct{ X float64 }

type run struct{ cells []nl.Cell }

func (r *run) write(i int) { c := &r.cells[i]; c.Y = 2 }

func read(c nl.Cell) float64 { return c.W + c.X }

func lit() nl.Cell { return nl.Cell{X: 3, W: 1} }

func other(p point) float64 { return p.X }
`,
		"internal/core/core_test.go": "package core\n\nimport \"planted/internal/netlist\"\n\nfunc f(c *netlist.Cell) { c.X = 0 }\n",
		"internal/viz/viz.go":        "package viz\n\nimport \"planted/internal/netlist\"\n\nfunc F(c *netlist.Cell) float64 { return c.X }\n",
	})
	uses, err := cellPositionUses(root, []string{"core"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range uses {
		got = append(got, u.fn+"."+u.field)
	}
	if want := "core.lit.X core.read.X core.run.write.Y"; strings.Join(got, " ") != want {
		t.Errorf("cellPositionUses on the planted module = %q, want %q", got, want)
	}
}

// cellUse is one read or write of a netlist.Cell position field.
type cellUse struct {
	pos   string // file:line:column
	fn    string // "pkg.Func" or "pkg.Type.Method", pkg relative to internal/
	field string // X or Y
}

// cellPositionUses lists, sorted by function, every selector of a
// netlist.Cell's X or Y field and every X or Y key of a netlist.Cell
// literal in the non-test files of the module rooted at root under
// internal/<pkg> for each of pkgs. The type checker resolves the field,
// so an aliased import or a pointer to a Cell is seen through.
func cellPositionUses(root string, pkgs []string) ([]cellUse, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	isCell := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj().Name() == "Cell" && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == m.path+"/internal/netlist"
	}
	var uses []cellUse
	for _, pkg := range pkgs {
		for _, f := range m.files[m.path+"/internal/"+pkg] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					fn = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				add := func(id *ast.Ident) {
					uses = append(uses, cellUse{m.fset.Position(id.Pos()).String(), fn, id.Name})
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if s := m.info.Selections[n]; s != nil && s.Kind() == types.FieldVal &&
							(n.Sel.Name == "X" || n.Sel.Name == "Y") && isCell(s.Recv()) {
							add(n.Sel)
						}
					case *ast.CompositeLit:
						if tv, ok := m.info.Types[n]; ok && isCell(tv.Type) {
							for _, el := range n.Elts {
								if kv, ok := el.(*ast.KeyValueExpr); ok {
									if id, ok := kv.Key.(*ast.Ident); ok && (id.Name == "X" || id.Name == "Y") {
										add(id)
									}
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	sort.SliceStable(uses, func(a, b int) bool { return uses[a].fn < uses[b].fn })
	return uses, nil
}
