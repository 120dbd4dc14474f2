package grid

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eplace/internal/geom"
)

// object is one test rectangle (center, size, layer) of a batch.
type object struct {
	X, Y, W, H float64
	Filler     bool
}

// soa lays a batch out as the arrays AddCellsSoA reads, cell k being
// object k.
func soa(objs []object) (idx []int, x, y, w, h []float64, filler []bool) {
	n := len(objs)
	idx = make([]int, n)
	x, y, w, h = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	filler = make([]bool, n)
	for k, o := range objs {
		idx[k] = k
		x[k], y[k], w[k], h[k], filler[k] = o.X, o.Y, o.W, o.H, o.Filler
	}
	return
}

// addObjects rasterizes a batch through AddCellsSoA. The TestAddObjects*
// tests below are named after this helper: they predate the removal of
// the exported pointer-path grid.AddObjects and keep their names so the
// suite's history stays comparable; what they exercise is AddCellsSoA.
func addObjects(g *Grid, objs []object, workers int) {
	idx, x, y, w, h, filler := soa(objs)
	g.AddCellsSoA(idx, x, y, w, h, filler, workers)
}

// addSerial is the reference the batch rasterizer must reproduce: the
// one-at-a-time AddMovable/AddFiller loop metrics and the baselines use.
func addSerial(g *Grid, objs []object) {
	for _, o := range objs {
		if o.Filler {
			g.AddFiller(o.X, o.Y, o.W, o.H)
		} else {
			g.AddMovable(o.X, o.Y, o.W, o.H)
		}
	}
}

// randomObjects mixes sub-bin cells, multi-bin macros, boundary-clamped
// cells and fillers.
func randomObjects(n int, seed int64, region geom.Rect) []object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]object, n)
	for i := range objs {
		w := 0.5 + rng.Float64()*3
		h := 0.5 + rng.Float64()*3
		if rng.Intn(20) == 0 { // occasional macro
			w *= 10
			h *= 10
		}
		objs[i] = object{
			X:      region.Lx + rng.Float64()*region.W(),
			Y:      region.Ly + rng.Float64()*region.H(),
			W:      w,
			H:      h,
			Filler: rng.Intn(3) == 0,
		}
	}
	return objs
}

// TestAddObjectsMatchesSerial asserts the batch row-sharded rasterizer
// is bitwise-identical to the serial AddMovable/AddFiller loop for
// every worker count.
func TestAddObjectsMatchesSerial(t *testing.T) {
	region := geom.Rect{Hx: 64, Hy: 64}
	objs := randomObjects(600, 3, region)

	ref := New(region, 32)
	addSerial(ref, objs)

	for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 64} {
		g := New(region, 32)
		addObjects(g, objs, workers)
		for b := range ref.Mov {
			if math.Float64bits(g.Mov[b]) != math.Float64bits(ref.Mov[b]) {
				t.Fatalf("workers=%d: Mov[%d] = %v, serial %v", workers, b, g.Mov[b], ref.Mov[b])
			}
			if math.Float64bits(g.Fill[b]) != math.Float64bits(ref.Fill[b]) {
				t.Fatalf("workers=%d: Fill[%d] = %v, serial %v", workers, b, g.Fill[b], ref.Fill[b])
			}
		}
	}
}

// TestAddObjectsReuse checks the scratch buffers survive repeated calls
// with different batch sizes (the per-iteration Refresh pattern).
func TestAddObjectsReuse(t *testing.T) {
	region := geom.Rect{Hx: 32, Hy: 32}
	g := New(region, 16)
	for _, n := range []int{100, 7, 250, 0, 33} {
		objs := randomObjects(n, int64(n)+1, region)
		ref := New(region, 16)
		addSerial(ref, objs)
		g.ClearMovable()
		addObjects(g, objs, 3)
		if g.Staged() != n {
			t.Fatalf("n=%d: Staged() = %d", n, g.Staged())
		}
		for b := range ref.Mov {
			if g.Mov[b] != ref.Mov[b] || g.Fill[b] != ref.Fill[b] {
				t.Fatalf("n=%d: bin %d (%v,%v) != serial (%v,%v)",
					n, b, g.Mov[b], g.Fill[b], ref.Mov[b], ref.Fill[b])
			}
		}
	}
}

// TestAddObjectsConservesArea mirrors the serial conservation property:
// in-region objects rasterize to exactly their area.
func TestAddObjectsConservesArea(t *testing.T) {
	region := geom.Rect{Hx: 64, Hy: 64}
	g := New(region, 32)
	objs := []object{
		{X: 10, Y: 10, W: 4, H: 4},
		{X: 30.3, Y: 40.7, W: 0.9, H: 1.1}, // sub-bin, smoothed
		{X: 50, Y: 20, W: 6, H: 2, Filler: true},
	}
	addObjects(g, objs, 2)
	wantMov := 4.0*4 + 0.9*1.1
	if got := layerSum(g.Mov); math.Abs(got-wantMov) > 1e-9 {
		t.Errorf("movable area = %v, want %v", got, wantMov)
	}
	if got := layerSum(g.Fill); math.Abs(got-12.0) > 1e-9 {
		t.Errorf("filler area = %v, want 12", got)
	}
}
