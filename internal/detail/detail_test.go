package detail

import (
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
)

// legalDesign builds a legalized random design with connectivity.
func legalDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("dp", geom.Rect{Hx: 150, Hy: 60})
	legalize.BuildRows(d, 2, 1)
	var cells []int
	for i := 0; i < n; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(2 + rng.Intn(3)), H: 2,
			X: 5 + rng.Float64()*140, Y: 2 + rng.Float64()*56,
		}))
	}
	// Pads on the boundary.
	var pads []int
	for i := 0; i < 6; i++ {
		pads = append(pads, d.AddCell(netlist.Cell{
			W: 1, H: 1, X: float64(10 + i*25), Y: 59.5, Fixed: true, Kind: netlist.Pad,
		}))
	}
	for k := 0; k < n; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(3)
		for p := 0; p < deg; p++ {
			d.Connect(cells[rng.Intn(n)], ni, 0, 0)
		}
		if rng.Intn(5) == 0 {
			d.Connect(pads[rng.Intn(len(pads))], ni, 0, 0)
		}
	}
	if err := legalizeStructs(d, cells); err != nil {
		panic(err)
	}
	return d, cells
}

// legalizeStructs legalizes cells of d through a view of it and stores
// the layout in the structs the tests start from.
func legalizeStructs(d *netlist.Design, cells []int) error {
	cv := d.Compile()
	_, _, err := legalize.Cells(cv, cells, 1)
	cv.Store()
	return err
}

func TestPlaceImprovesHPWL(t *testing.T) {
	d, cells := legalDesign(250, 1)
	res, err := Place(d, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("detail placement worsened HPWL: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.HPWLAfter >= res.HPWLBefore {
		t.Errorf("no improvement: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.Swaps+res.Reorders+res.Relocates == 0 {
		t.Error("no operations performed")
	}
}

func TestPlacePreservesLegality(t *testing.T) {
	d, cells := legalDesign(250, 2)
	if _, err := Place(d, cells, Options{Passes: 5}); err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("layout illegal after detail placement: %v", err)
	}
}

func TestPlaceWithMacroObstacles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := netlist.New("dpm", geom.Rect{Hx: 120, Hy: 40})
	legalize.BuildRows(d, 2, 0)
	d.AddCell(netlist.Cell{W: 30, H: 16, X: 60, Y: 20, Kind: netlist.Macro, Fixed: true})
	var cells []int
	for i := 0; i < 150; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: 2 + rng.Float64()*2, H: 2,
			X: 5 + rng.Float64()*110, Y: 2 + rng.Float64()*36,
		}))
	}
	for k := 0; k < 150; k++ {
		ni := d.AddNet("", 1)
		d.Connect(cells[rng.Intn(len(cells))], ni, 0, 0)
		d.Connect(cells[rng.Intn(len(cells))], ni, 0, 0)
	}
	if err := legalizeStructs(d, cells); err != nil {
		t.Fatal(err)
	}
	if _, err := Place(d, cells, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("illegal after detail placement near macro: %v", err)
	}
}

func TestPlaceConvergesToFixedPoint(t *testing.T) {
	d, cells := legalDesign(150, 4)
	if _, err := Place(d, cells, Options{Passes: 10}); err != nil {
		t.Fatal(err)
	}
	h1 := d.HPWL()
	res, err := Place(d, cells, Options{Passes: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A second run should find little or nothing left.
	if res.HPWLAfter > h1+1e-9 {
		t.Errorf("second run worsened HPWL: %v -> %v", h1, res.HPWLAfter)
	}
	if (h1-res.HPWLAfter)/h1 > 0.05 {
		t.Errorf("second run still improved by %v%%: first run under-converged",
			100*(h1-res.HPWLAfter)/h1)
	}
}

func TestPlaceRequiresRows(t *testing.T) {
	d := netlist.New("norows", geom.Rect{Hx: 10, Hy: 10})
	c := d.AddCell(netlist.Cell{W: 2, H: 2, X: 5, Y: 5})
	if _, err := Place(d, []int{c}, Options{}); err == nil {
		t.Error("expected error for design without rows")
	}
}

func TestPlaceRejectsOffRowCells(t *testing.T) {
	d := netlist.New("offrow", geom.Rect{Hx: 10, Hy: 10})
	legalize.BuildRows(d, 2, 0)
	c := d.AddCell(netlist.Cell{W: 2, H: 2, X: 5, Y: 4.7})
	if _, err := Place(d, []int{c}, Options{}); err == nil {
		t.Error("expected error for off-row cell")
	}
}

func TestPermutations(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		perms := permutations(n)
		if len(perms) != want {
			t.Errorf("permutations(%d) = %d, want %d", n, len(perms), want)
		}
		seen := map[string]bool{}
		for _, p := range perms {
			key := ""
			for _, v := range p {
				key += string(rune('0' + v))
			}
			if seen[key] {
				t.Errorf("duplicate permutation %v", p)
			}
			seen[key] = true
		}
	}
}

func TestEmptyCellList(t *testing.T) {
	d := netlist.New("e", geom.Rect{Hx: 10, Hy: 10})
	legalize.BuildRows(d, 2, 0)
	res, err := Place(d, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 0 || res.HPWLBefore != res.HPWLAfter {
		t.Errorf("empty run: %+v", res)
	}
}

func BenchmarkDetailPlace500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, cells := legalDesign(500, 7)
		b.StartTimer()
		if _, err := Place(d, cells, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression: a wide macro with pads underneath spans several row
// markers; the gap logic must never let a cell slide onto the macro
// (this exact scenario produced overlaps before the segment-based
// rewrite).
func TestMacroSpanningPadsRegression(t *testing.T) {
	d := netlist.New("span", geom.Rect{Hx: 80, Hy: 20})
	legalize.BuildRows(d, 2, 1)
	// Macro covering x [30, 51.3], all rows up to y=14.
	d.AddCell(netlist.Cell{W: 21.3, H: 14, X: 40.65, Y: 7, Kind: netlist.Macro, Fixed: true})
	// Pads underneath the macro in row 0.
	for _, x := range []float64{32.5, 40.5, 48.5} {
		d.AddCell(netlist.Cell{W: 1, H: 1, X: x, Y: 0.5, Kind: netlist.Pad, Fixed: true})
	}
	// Cells on both sides of the macro in row 0, pulled across by a net.
	a := d.AddCell(netlist.Cell{W: 3, H: 2, X: 53.5, Y: 1})
	b := d.AddCell(netlist.Cell{W: 5, H: 2, X: 59.5, Y: 1})
	c := d.AddCell(netlist.Cell{W: 4, H: 2, X: 10, Y: 1})
	ni := d.AddNet("pull", 5)
	d.Connect(b, ni, 0, 0)
	d.Connect(c, ni, 0, 0)
	cells := []int{a, b, c}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("setup not legal: %v", err)
	}
	if _, err := Place(d, cells, Options{Passes: 5}); err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("detail placement broke legality: %v", err)
	}
}
