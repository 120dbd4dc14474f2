package grid

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
)

// randomBatch builds n random objects plus the SoA arrays AddCellsSoA
// reads, indexed by a shuffled cell id and covering more cells than the
// batch rasterizes, like a compiled netlist view.
func randomBatch(n int, seed int64) (objs []object, idx []int, x, y, w, h []float64, filler []bool) {
	rng := rand.New(rand.NewSource(seed))
	objs = make([]object, n)
	idx = make([]int, n)
	total := 2 * n
	x = make([]float64, total)
	y = make([]float64, total)
	w = make([]float64, total)
	h = make([]float64, total)
	filler = make([]bool, total)
	perm := rng.Perm(total)
	for i := 0; i < n; i++ {
		o := object{
			X: rng.Float64() * 100, Y: rng.Float64() * 100,
			W: rng.Float64() * 10, H: rng.Float64() * 10,
			Filler: rng.Intn(3) == 0,
		}
		objs[i] = o
		ci := perm[i]
		idx[i] = ci
		x[ci], y[ci], w[ci], h[ci], filler[ci] = o.X, o.Y, o.W, o.H, o.Filler
	}
	return
}

// TestAddCellsSoAShuffledIdxMatchesSerial locks the equivalence the
// density model relies on: rasterizing through an index into larger SoA
// arrays is bit-for-bit the serial loop over the same objects in idx
// order, at several worker counts.
func TestAddCellsSoAShuffledIdxMatchesSerial(t *testing.T) {
	region := geom.Rect{Hx: 100, Hy: 100}
	objs, idx, x, y, w, h, filler := randomBatch(500, 5)
	ref := New(region, 32)
	addSerial(ref, objs)
	for _, workers := range []int{1, 2, 7} {
		g := New(region, 32)
		g.AddCellsSoA(idx, x, y, w, h, filler, workers)
		for b := range ref.Mov {
			if math.Float64bits(g.Mov[b]) != math.Float64bits(ref.Mov[b]) ||
				math.Float64bits(g.Fill[b]) != math.Float64bits(ref.Fill[b]) {
				t.Fatalf("workers=%d: bin %d differs: mov %v vs %v, fill %v vs %v",
					workers, b, g.Mov[b], ref.Mov[b], g.Fill[b], ref.Fill[b])
			}
		}
	}
}

// TestRasterizeAllocFree pins the steady-state allocation contract of
// batch rasterization and of the force gather at workers=1.
func TestRasterizeAllocFree(t *testing.T) {
	region := geom.Rect{Hx: 100, Hy: 100}
	_, idx, x, y, w, h, filler := randomBatch(300, 9)
	g := New(region, 32)
	g.AddCellsSoA(idx, x, y, w, h, filler, 1) // size scratch
	if n := testing.AllocsPerRun(20, func() {
		g.ClearMovable()
		g.AddCellsSoA(idx, x, y, w, h, filler, 1)
	}); n != 0 {
		t.Errorf("AddCellsSoA allocates %v times per call, want 0", n)
	}
	field := make([]float64, g.M*g.M)
	if n := testing.AllocsPerRun(20, func() {
		for k := range idx {
			g.FootprintForce(k, field, field, 1)
		}
	}); n != 0 {
		t.Errorf("FootprintForce allocates %v times per sweep, want 0", n)
	}
}

// TestRowIdxGrowsWithHeadroom: while cells spread, the (object, row)
// incidence count rises a little on almost every call. Sizing rowIdx to
// the exact count reallocated it every time (41 times in one flat 5K
// placement); with headroom 200 rising calls regrow it a handful of
// times. The test counts the changes of rowIdx's capacity, its own
// work, rather than process-wide mallocs, which other goroutines'
// allocations can raise.
func TestRowIdxGrowsWithHeadroom(t *testing.T) {
	region := geom.Rect{Hx: 100, Hy: 100}
	const n = 100
	objs := make([]object, n)
	for k := range objs {
		objs[k] = object{X: 50, Y: 50, W: 1, H: 1}
	}
	idx, x, y, w, h, filler := soa(objs)
	g := New(region, 64)
	g.AddCellsSoA(idx, x, y, w, h, filler, 1)
	regrowths, last := 0, cap(g.rowIdx)
	for c := 0; c < 200; c++ {
		// One cell grows by two bin heights: two more incidences.
		h[c%n] += 2 * g.BinH
		g.ClearMovable()
		g.AddCellsSoA(idx, x, y, w, h, filler, 1)
		if cap(g.rowIdx) != last {
			regrowths, last = regrowths+1, cap(g.rowIdx)
		}
	}
	if regrowths > 4 {
		t.Errorf("200 calls with a rising incidence count reallocated rowIdx %d times, want a handful", regrowths)
	}
}
