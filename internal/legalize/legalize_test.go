package legalize

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

func TestBuildRows(t *testing.T) {
	d := netlist.New("r", geom.Rect{Hx: 100, Hy: 40})
	BuildRows(d, 4, 1)
	if len(d.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(d.Rows))
	}
	if d.Rows[0].Y != 0 || d.Rows[9].Y != 36 {
		t.Errorf("row range [%v, %v]", d.Rows[0].Y, d.Rows[9].Y)
	}
}

func TestRowSegmentsAroundMacro(t *testing.T) {
	d := netlist.New("s", geom.Rect{Hx: 100, Hy: 12})
	BuildRows(d, 4, 0)
	// Macro blocking x in [40, 60] across the bottom two rows.
	d.AddCell(netlist.Cell{W: 20, H: 8, X: 50, Y: 4, Kind: netlist.Macro, Fixed: true})
	segs := FreeSegments(d.Compile(), nil)
	if len(segs[0]) != 2 || len(segs[1]) != 2 {
		t.Fatalf("bottom rows have %d, %d segments, want 2 each", len(segs[0]), len(segs[1]))
	}
	if segs[0][0].Hx != 40 || segs[0][1].Lx != 60 {
		t.Errorf("segments = %+v", segs[0])
	}
	if len(segs[2]) != 1 {
		t.Errorf("top row has %d segments, want 1", len(segs[2]))
	}
}

// cellsOn runs Cells through a view of d and stores the legalized
// positions in the structs CheckLegal reads.
func cellsOn(d *netlist.Design, cells []int, workers int) (total, max float64, err error) {
	cv := d.Compile()
	total, max, err = Cells(cv, cells, workers)
	cv.Store()
	return total, max, err
}

// macrosOn runs Macros through a view of d and stores the legalized
// positions in the structs CheckMacrosLegal reads.
func macrosOn(d *netlist.Design, macros []int, opt MLGOptions) MLGResult {
	cv := d.Compile()
	res := Macros(cv, macros, opt)
	cv.Store()
	return res
}

func makeLegalizeDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("lg", geom.Rect{Hx: 120, Hy: 60})
	BuildRows(d, 2, 1)
	var cells []int
	for i := 0; i < n; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(2 + rng.Intn(4)), H: 2,
			X: 5 + rng.Float64()*110, Y: 2 + rng.Float64()*56,
		}))
	}
	return d, cells
}

func TestAbacusProducesLegalLayout(t *testing.T) {
	d, cells := makeLegalizeDesign(300, 1)
	total, max, err := cellsOn(d, cells, 1)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if err := CheckLegal(d, cells); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	if total <= 0 || max <= 0 {
		t.Errorf("displacement totals: total=%v max=%v", total, max)
	}
}

func TestLegalizeAroundMacros(t *testing.T) {
	d, cells := makeLegalizeDesign(200, 4)
	// Place a fixed macro in the middle; cells must avoid it.
	d.AddCell(netlist.Cell{W: 30, H: 20, X: 60, Y: 30, Kind: netlist.Macro, Fixed: true})
	_, _, err := cellsOn(d, cells, 1)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if err := CheckLegal(d, cells); err != nil {
		t.Fatalf("not legal: %v", err)
	}
}

func TestLegalizeOverfullFails(t *testing.T) {
	d := netlist.New("full", geom.Rect{Hx: 10, Hy: 4})
	BuildRows(d, 2, 0)
	var cells []int
	for i := 0; i < 10; i++ { // 10 cells x 4 wide = 40 > 20 capacity
		cells = append(cells, d.AddCell(netlist.Cell{W: 4, H: 2, X: 5, Y: 2}))
	}
	if _, _, err := cellsOn(d, cells, 1); err == nil {
		t.Error("expected capacity failure")
	}
}

func TestCheckLegalDetectsViolations(t *testing.T) {
	d := netlist.New("v", geom.Rect{Hx: 20, Hy: 8})
	BuildRows(d, 2, 0)
	a := d.AddCell(netlist.Cell{W: 4, H: 2, X: 2, Y: 1})
	b := d.AddCell(netlist.Cell{W: 4, H: 2, X: 4, Y: 1}) // overlaps a
	if err := CheckLegal(d, []int{a, b}); err == nil {
		t.Error("missed overlap")
	}
	d.Cells[b].X = 8
	if err := CheckLegal(d, []int{a, b}); err != nil {
		t.Errorf("legal layout rejected: %v", err)
	}
	d.Cells[b].Y = 1.7 // off-row
	if err := CheckLegal(d, []int{a, b}); err == nil {
		t.Error("missed off-row cell")
	}
	d.Cells[b].Y = 1
	d.Cells[b].X = 19 // sticks out of region
	if err := CheckLegal(d, []int{a, b}); err == nil {
		t.Error("missed out-of-region cell")
	}
}

func TestSnapToSites(t *testing.T) {
	d := netlist.New("snap", geom.Rect{Hx: 50, Hy: 4})
	BuildRows(d, 2, 1)
	c := d.AddCell(netlist.Cell{W: 3, H: 2, X: 10.37, Y: 1.2})
	if _, _, err := cellsOn(d, []int{c}, 1); err != nil {
		t.Fatal(err)
	}
	lx := d.Cells[c].X - 1.5
	if math.Abs(lx-math.Round(lx)) > 1e-9 {
		t.Errorf("cell left edge %v not site-aligned", lx)
	}
}

// ---- mLG tests ----

// mlgDesign builds fixed std cells plus overlapping movable macros tied
// together by nets.
func mlgDesign(nMacros int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("mlg", geom.Rect{Hx: 100, Hy: 100})
	var cells []int
	for i := 0; i < 150; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: 2, H: 2, X: rng.Float64() * 100, Y: rng.Float64() * 100,
			Fixed: true, // std cells are fixed during mLG
		}))
	}
	var macros []int
	for i := 0; i < nMacros; i++ {
		// Cluster macros near the center so they overlap initially.
		macros = append(macros, d.AddCell(netlist.Cell{
			W: 14 + rng.Float64()*6, H: 14 + rng.Float64()*6,
			X: 40 + rng.Float64()*20, Y: 40 + rng.Float64()*20,
			Kind: netlist.Macro,
		}))
	}
	for _, mi := range macros {
		for k := 0; k < 4; k++ {
			ni := d.AddNet("", 1)
			d.Connect(mi, ni, 0, 0)
			d.Connect(cells[rng.Intn(len(cells))], ni, 0, 0)
		}
	}
	return d, macros
}

func TestMLGRemovesMacroOverlap(t *testing.T) {
	d, macros := mlgDesign(6, 1)
	res := macrosOn(d, macros, MLGOptions{Seed: 2})
	if !res.Legal {
		t.Fatalf("mLG did not legalize: Om after = %v", res.OmAfter)
	}
	if res.OmBefore <= 0 {
		t.Fatal("test setup: no initial overlap")
	}
	if err := CheckMacrosLegal(d, macros); err != nil {
		t.Errorf("CheckMacrosLegal: %v", err)
	}
	// Macros were fixed by mLG.
	for _, mi := range macros {
		if !d.Cells[mi].Fixed {
			t.Error("macro not fixed after mLG")
		}
	}
}

func TestMLGOnlyLocalShifts(t *testing.T) {
	// Macros already legal: mLG must barely move them.
	d := netlist.New("legal", geom.Rect{Hx: 100, Hy: 100})
	var macros []int
	for i := 0; i < 3; i++ {
		macros = append(macros, d.AddCell(netlist.Cell{
			W: 10, H: 10, X: 15 + 30*float64(i), Y: 50, Kind: netlist.Macro,
		}))
	}
	before := make([]geom.Point, len(macros))
	for k, mi := range macros {
		before[k] = geom.Point{X: d.Cells[mi].X, Y: d.Cells[mi].Y}
	}
	res := macrosOn(d, macros, MLGOptions{Seed: 3})
	if !res.Legal {
		t.Fatal("legal input became illegal")
	}
	for k, mi := range macros {
		moved := math.Hypot(d.Cells[mi].X-before[k].X, d.Cells[mi].Y-before[k].Y)
		if moved > 20 {
			t.Errorf("macro %d moved %v, expected only local shifts", k, moved)
		}
	}
}

func TestMLGWirelengthOverheadBounded(t *testing.T) {
	d, macros := mlgDesign(5, 4)
	wBefore := d.HPWL()
	res := macrosOn(d, macros, MLGOptions{Seed: 5})
	if !res.Legal {
		t.Fatal("not legalized")
	}
	if res.WAfter > 1.6*wBefore {
		t.Errorf("mLG wirelength %v vs %v: overhead too large", res.WAfter, wBefore)
	}
	if math.Abs(res.WAfter-d.HPWL()) > 1e-6*d.HPWL() {
		t.Errorf("reported WAfter %v != design HPWL %v", res.WAfter, d.HPWL())
	}
}

func TestMLGEmptyMacros(t *testing.T) {
	d := netlist.New("none", geom.Rect{Hx: 10, Hy: 10})
	res := macrosOn(d, nil, MLGOptions{})
	if !res.Legal {
		t.Error("empty macro set should be trivially legal")
	}
}

func TestMLGManyMacros(t *testing.T) {
	d, macros := mlgDesign(15, 6)
	res := macrosOn(d, macros, MLGOptions{Seed: 7})
	if !res.Legal {
		t.Fatalf("15 macros not legalized: Om=%v", res.OmAfter)
	}
	if err := CheckMacrosLegal(d, macros); err != nil {
		t.Error(err)
	}
}

func TestShoveApartResolvesOverlap(t *testing.T) {
	d := netlist.New("shove", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell(netlist.Cell{W: 20, H: 20, X: 50, Y: 50, Kind: netlist.Macro})
	b := d.AddCell(netlist.Cell{W: 20, H: 20, X: 55, Y: 52, Kind: netlist.Macro})
	cv := d.Compile()
	shoveApart(cv, []int{a, b}, 50)
	cv.Store()
	if ov := d.Cells[a].Rect().Overlap(d.Cells[b].Rect()); ov > 1e-9 {
		t.Errorf("overlap remains: %v", ov)
	}
	if err := CheckMacrosLegal(d, []int{a, b}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAbacus1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, cells := makeLegalizeDesign(1000, 9)
		b.StartTimer()
		if _, _, err := cellsOn(d, cells, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLG10Macros(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, macros := mlgDesign(10, 11)
		b.StartTimer()
		macrosOn(d, macros, MLGOptions{Seed: 2})
	}
}

func TestRotateMacroQuarterTurns(t *testing.T) {
	d := netlist.New("rot", geom.Rect{Hx: 100, Hy: 100})
	mi := d.AddCell(netlist.Cell{W: 20, H: 10, X: 50, Y: 50, Kind: netlist.Macro})
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 90, Y: 50, Fixed: true, Kind: netlist.Pad})
	ni := d.AddNet("n", 1)
	d.Connect(mi, ni, 8, 3)
	d.Connect(pad, ni, 0, 0)
	w0, h0 := d.Cells[mi].W, d.Cells[mi].H
	ox0, oy0 := d.Pins[0].Ox, d.Pins[0].Oy
	cv := d.Compile()
	hpwl0 := cv.HPWL()

	// A turn edits the design and its view together.
	cv.Turn(mi)
	if d.Cells[mi].W != h0 || d.Cells[mi].H != w0 || cv.CellW[mi] != h0 || cv.CellH[mi] != w0 {
		t.Errorf("rotation did not swap dims: %vx%v, view %vx%v", d.Cells[mi].W, d.Cells[mi].H, cv.CellW[mi], cv.CellH[mi])
	}
	if d.Pins[0].Ox != -oy0 || d.Pins[0].Oy != ox0 || cv.PinOx[0] != -oy0 || cv.PinOy[0] != ox0 {
		t.Errorf("pin offset after rotation = (%v, %v), view (%v, %v)", d.Pins[0].Ox, d.Pins[0].Oy, cv.PinOx[0], cv.PinOy[0])
	}
	// Four quarter turns restore everything.
	cv.Turn(mi)
	cv.Turn(mi)
	cv.Turn(mi)
	if d.Cells[mi].W != w0 || d.Cells[mi].H != h0 ||
		d.Pins[0].Ox != ox0 || d.Pins[0].Oy != oy0 || cv.PinOx[0] != ox0 || cv.PinOy[0] != oy0 {
		t.Error("four rotations did not restore the macro")
	}
	if math.Abs(cv.HPWL()-hpwl0) > 1e-9 {
		t.Errorf("HPWL drifted across full rotation: %v vs %v", cv.HPWL(), hpwl0)
	}
}

func TestMLGWithRotationStillLegal(t *testing.T) {
	d, macros := mlgDesign(8, 21)
	res := macrosOn(d, macros, MLGOptions{Seed: 22, AllowOrient: true})
	if !res.Legal {
		t.Fatalf("rotation-enabled mLG not legal: Om=%v", res.OmAfter)
	}
	if err := CheckMacrosLegal(d, macros); err != nil {
		t.Error(err)
	}
}

func TestMLGRotationHelpsTallMacrosInWideRows(t *testing.T) {
	// Tall macros connected to pads on a horizontal line: rotating them
	// should not hurt and usually shortens wirelength vs. the NR run.
	build := func() (*netlist.Design, []int) {
		d := netlist.New("tall", geom.Rect{Hx: 120, Hy: 40})
		var macros []int
		for i := 0; i < 4; i++ {
			macros = append(macros, d.AddCell(netlist.Cell{
				W: 8, H: 30, X: 55 + 3*float64(i), Y: 20, Kind: netlist.Macro,
			}))
		}
		for i, mi := range macros {
			pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: float64(10 + 30*i), Y: 2, Fixed: true, Kind: netlist.Pad})
			ni := d.AddNet("", 1)
			d.Connect(mi, ni, 0, 0)
			d.Connect(pad, ni, 0, 0)
		}
		return d, macros
	}
	d1, m1 := build()
	nr := macrosOn(d1, m1, MLGOptions{Seed: 5})
	d2, m2 := build()
	rot := macrosOn(d2, m2, MLGOptions{Seed: 5, AllowOrient: true})
	if !nr.Legal || !rot.Legal {
		t.Fatalf("legality: nr=%v rot=%v", nr.Legal, rot.Legal)
	}
	if rot.WAfter > 1.3*nr.WAfter {
		t.Errorf("rotation made wirelength much worse: %v vs %v", rot.WAfter, nr.WAfter)
	}
}

// Regression: fractional segment boundaries (pads at half-site edges)
// must not let the site-snapping pass collide clusters.
func TestSnapWithFractionalSegmentsRegression(t *testing.T) {
	d := netlist.New("frac", geom.Rect{Hx: 30, Hy: 4})
	BuildRows(d, 2, 1)
	// Obstacles with fractional edges split row 0 into awkward segments.
	d.AddCell(netlist.Cell{W: 1.3, H: 2, X: 8.15, Y: 1, Fixed: true})
	d.AddCell(netlist.Cell{W: 0.7, H: 2, X: 15.85, Y: 1, Fixed: true})
	var cells []int
	for i := 0; i < 8; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: 2, H: 2, X: 3 + 3*float64(i%5), Y: 1 + 2*float64(i/5),
		}))
	}
	if _, _, err := cellsOn(d, cells, 1); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d, cells); err != nil {
		t.Fatalf("fractional segments broke legality: %v", err)
	}
}
