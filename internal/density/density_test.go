package density

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

func newDesign(n int, seed int64) (*netlist.Design, []int) {
	d := netlist.New("t", geom.Rect{Lx: 0, Ly: 0, Hx: 64, Hy: 64})
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{
			W: 2 + rng.Float64()*3, H: 2,
			X: 16 + rng.Float64()*32, Y: 16 + rng.Float64()*32,
		}))
	}
	return d, idx
}

// mustModel builds a model over a private compiled view of d (workers
// <= 0: all cores) or fails the test. A test that then moves cells
// through the Cell structs refreshes through syncRefresh.
func mustModel(tb testing.TB, d *netlist.Design, m, workers int) *Model {
	tb.Helper()
	md, err := NewModelCompiled(d.Compile(), m, workers, "")
	if err != nil {
		tb.Fatalf("NewModelCompiled(m=%d, workers=%d): %v", m, workers, err)
	}
	return md
}

// syncRefresh copies the Cell structs' positions into the model's view,
// then refreshes: what the engine does through Compiled.SetPositions.
func syncRefresh(md *Model, idx []int) {
	d := md.cv.Design()
	for i := range d.Cells {
		md.cv.PosX[i], md.cv.PosY[i] = d.Cells[i].X, d.Cells[i].Y
	}
	md.Refresh(idx)
}

func TestEnergyPositiveWhenClustered(t *testing.T) {
	d, idx := newDesign(40, 1)
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	if md.Energy() <= 0 {
		t.Errorf("clustered energy = %v, want > 0", md.Energy())
	}
}

func TestEnergyDropsWhenSpread(t *testing.T) {
	d, idx := newDesign(64, 2)
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	clustered := md.Energy()
	// Spread the same cells uniformly over the region.
	k := 0
	for _, ci := range idx {
		d.Cells[ci].X = 4 + float64(k%8)*8
		d.Cells[ci].Y = 4 + float64(k/8)*8
		k++
	}
	syncRefresh(md, idx)
	if spread := md.Energy(); spread >= clustered {
		t.Errorf("spread energy %v >= clustered %v", spread, clustered)
	}
}

func TestGradientPushesApart(t *testing.T) {
	d := netlist.New("pair", geom.Rect{Hx: 64, Hy: 64})
	a := d.AddCell(netlist.Cell{W: 8, H: 8, X: 30, Y: 32})
	b := d.AddCell(netlist.Cell{W: 8, H: 8, X: 34, Y: 32}) // overlapping to the right
	idx := []int{a, b}
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	grad := make([]float64, 4)
	md.Gradient(idx, grad)
	// Descending -grad must separate them: a moves left, b moves right.
	if grad[0] <= 0 {
		t.Errorf("dN/dx_a = %v, want > 0 (a pushed left)", grad[0])
	}
	if grad[1] >= 0 {
		t.Errorf("dN/dx_b = %v, want < 0 (b pushed right)", grad[1])
	}
}

func TestGradientMatchesNumericDerivative(t *testing.T) {
	d, idx := newDesign(30, 3)
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	grad := make([]float64, 2*len(idx))
	md.Gradient(idx, grad)

	// Numeric derivatives via central differences. The analytic gradient
	// samples the field at bin granularity, so per-cell values carry an
	// O(1/footprint-bins) discretization error; require agreement to 40%
	// per cell plus high cosine similarity over the whole vector.
	h := 0.05
	numeric := make([]float64, 2*len(idx))
	for k, ci := range idx {
		x0 := d.Cells[ci].X
		d.Cells[ci].X = x0 + h
		syncRefresh(md, idx)
		ep := md.Energy()
		d.Cells[ci].X = x0 - h
		syncRefresh(md, idx)
		em := md.Energy()
		d.Cells[ci].X = x0
		numeric[k] = (ep - em) / (2 * h)

		y0 := d.Cells[ci].Y
		d.Cells[ci].Y = y0 + h
		syncRefresh(md, idx)
		ep = md.Energy()
		d.Cells[ci].Y = y0 - h
		syncRefresh(md, idx)
		em = md.Energy()
		d.Cells[ci].Y = y0
		numeric[k+len(idx)] = (ep - em) / (2 * h)
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range grad {
		dot += grad[i] * numeric[i]
		na += grad[i] * grad[i]
		nb += numeric[i] * numeric[i]
	}
	cos := dot / math.Sqrt(na*nb)
	if cos < 0.95 {
		t.Fatalf("gradient cosine similarity %v, want >= 0.95", cos)
	}
	scale := math.Sqrt(nb / float64(len(numeric)))
	for _, k := range []int{0, 7, 19, len(idx) + 3, len(idx) + 11} {
		if math.Abs(numeric[k]-grad[k]) > 0.4*(math.Abs(numeric[k])+math.Abs(grad[k]))+0.05*scale {
			t.Errorf("component %d: numeric = %v, analytic = %v", k, numeric[k], grad[k])
		}
	}
}

func TestFixedCellsRepelMovable(t *testing.T) {
	d := netlist.New("fixed", geom.Rect{Hx: 64, Hy: 64})
	// Fixed macro on the left half; movable cell right at its edge.
	d.AddCell(netlist.Cell{W: 24, H: 24, X: 20, Y: 32, Kind: netlist.Macro, Fixed: true})
	c := d.AddCell(netlist.Cell{W: 4, H: 4, X: 33, Y: 32})
	idx := []int{c}
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	grad := make([]float64, 2)
	md.Gradient(idx, grad)
	// Descent moves along -grad, so being pushed right (away from the
	// macro) means dN/dx < 0.
	if grad[0] >= 0 {
		t.Errorf("dN/dx = %v, want < 0 (movable pushed right, away from fixed macro)", grad[0])
	}
}

func TestFillersCountedInChargeNotOverflow(t *testing.T) {
	d := netlist.New("fill", geom.Rect{Hx: 64, Hy: 64})
	// Pile both a movable cell and the view's fillers in the center.
	idx := []int{d.AddCell(netlist.Cell{W: 6, H: 6, X: 32, Y: 32})}
	cv := d.Compile()
	for ci := cv.AddFillers(10, 6, 6); ci < len(cv.PosX); ci++ {
		cv.PosX[ci], cv.PosY[ci] = 32, 32
		idx = append(idx, ci)
	}
	md, err := NewModelCompiled(cv, 32, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	md.Refresh(idx)
	// Overflow sees only the single movable cell: one 6x6 cell in a
	// 64x64 region cannot overflow target density 1.0 by much.
	if tau := md.Overflow(1.0); tau > 0.35 {
		t.Errorf("overflow with fillers = %v, want small", tau)
	}
	// But the charge (and so the energy) must include the fillers.
	if md.Energy() <= 0 {
		t.Error("stacked fillers produced no positive energy")
	}
	fill := 0.0
	for _, v := range md.Grid.Fill {
		fill += v
	}
	if got := fill; math.Abs(got-360) > 1e-6 {
		t.Errorf("filler charge = %v, want 360", got)
	}
}

func TestRefreshIsIdempotent(t *testing.T) {
	d, idx := newDesign(20, 5)
	md := mustModel(t, d, 32, 0)
	md.Refresh(idx)
	e1 := md.Energy()
	md.Refresh(idx)
	if e2 := md.Energy(); e1 != e2 {
		t.Errorf("Refresh not idempotent: %v then %v", e1, e2)
	}
}

// TestEnergyLazy pins the on-demand energy: the sum Energy takes after a
// Refresh, and after a Gradient in between, has the bits of the solver's
// own sum over the same planes; it is cached until the next Refresh,
// which moves it when the charge moves.
func TestEnergyLazy(t *testing.T) {
	d, idx := newDesign(20, 5)
	md := mustModel(t, d, 32, 2)
	if e := md.Energy(); e != 0 {
		t.Fatalf("energy before any Refresh = %v, want 0", e)
	}
	md.Refresh(idx)
	md.Gradient(idx, make([]float64, 2*len(idx)))
	want := md.Solver.Energy(md.rho)
	if e := md.Energy(); math.Float64bits(e) != math.Float64bits(want) {
		t.Fatalf("lazy energy %v, solver sum %v", e, want)
	}
	if e := md.Energy(); math.Float64bits(e) != math.Float64bits(want) {
		t.Fatalf("second read %v, want the cached %v", e, want)
	}
	d.Cells[idx[0]].X += 7
	syncRefresh(md, idx)
	if e := md.Energy(); e == want {
		t.Fatalf("energy %v did not move with the charge", e)
	}
}

func TestGradientZeroAtUniform(t *testing.T) {
	d := netlist.New("uni", geom.Rect{Hx: 64, Hy: 64})
	var idx []int
	// Perfectly uniform tiling: 8x8 cells of 8x8 each.
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			idx = append(idx, d.AddCell(netlist.Cell{
				W: 8, H: 8, X: 4 + 8*float64(i), Y: 4 + 8*float64(j),
			}))
		}
	}
	md := mustModel(t, d, 16, 0)
	md.Refresh(idx)
	grad := make([]float64, 2*len(idx))
	md.Gradient(idx, grad)
	maxG := 0.0
	for _, g := range grad {
		if a := math.Abs(g); a > maxG {
			maxG = a
		}
	}
	// Compare against the gradient scale of a clustered layout.
	for _, ci := range idx {
		d.Cells[ci].X = 28 + 2*rand.New(rand.NewSource(1)).Float64()
		d.Cells[ci].Y = 32
	}
	syncRefresh(md, idx)
	gc := make([]float64, 2*len(idx))
	md.Gradient(idx, gc)
	maxC := 0.0
	for _, g := range gc {
		if a := math.Abs(g); a > maxC {
			maxC = a
		}
	}
	if maxG > 0.05*maxC {
		t.Errorf("uniform layout gradient %v not << clustered gradient %v", maxG, maxC)
	}
}

func BenchmarkRefreshAndGradient(b *testing.B) {
	d, idx := newDesign(2000, 9)
	md := mustModel(b, d, 64, 0)
	grad := make([]float64, 2*len(idx))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md.Refresh(idx)
		md.Gradient(idx, grad)
	}
}
