package grid

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
)

func region100() geom.Rect { return geom.Rect{Lx: 0, Ly: 0, Hx: 100, Hy: 100} }

func TestNewRejectsBadSize(t *testing.T) {
	for _, m := range []int{0, 3, -8, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(m=%d) did not panic", m)
				}
			}()
			New(region100(), m)
		}()
	}
}

func TestChooseM(t *testing.T) {
	cases := []struct {
		objects, want int
	}{
		{1, 16}, {100, 16}, {1000, 32}, {10000, 128}, {250000, 512}, {4000000, 1024}, {100000000, 1024},
	}
	for _, c := range cases {
		if got := ChooseM(c.objects); got != c.want {
			t.Errorf("ChooseM(%d) = %d, want %d", c.objects, got, c.want)
		}
		if m := ChooseM(c.objects); m&(m-1) != 0 {
			t.Errorf("ChooseM(%d) not a power of two", c.objects)
		}
	}
}

func TestAreaConservationLargeCell(t *testing.T) {
	g := New(region100(), 16)
	// A cell larger than a bin: no smoothing, exact area.
	g.AddMovable(50, 50, 20, 30)
	if got := layerSum(g.Mov); math.Abs(got-600) > 1e-9 {
		t.Errorf("TotalMovable = %v, want 600", got)
	}
}

func TestAreaConservationSmallCell(t *testing.T) {
	g := New(region100(), 16) // bins 6.25 x 6.25
	// A tiny cell is inflated but its total charge is preserved.
	g.AddMovable(50, 50, 1, 1.5)
	if got := layerSum(g.Mov); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("smoothed TotalMovable = %v, want 1.5", got)
	}
}

func TestSmallCellSpreadsOverBins(t *testing.T) {
	g := New(region100(), 16)
	g.AddMovable(50, 50, 1, 1) // inflated to sqrt2*6.25 ~ 8.84 wide
	occupied := 0
	for _, v := range g.Mov {
		if v > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Errorf("smoothed cell touches %d bins, want >= 4", occupied)
	}
}

func TestFixedClippedToRegion(t *testing.T) {
	g := New(region100(), 16)
	g.AddFixed(geom.Rect{Lx: -10, Ly: 40, Hx: 10, Hy: 60}) // half outside
	total := 0.0
	for _, v := range g.Fixed {
		total += v
	}
	if math.Abs(total-200) > 1e-9 {
		t.Errorf("clipped fixed area = %v, want 200", total)
	}
}

func TestSplatExactPartition(t *testing.T) {
	// A rect aligned to cover exactly 2x2 bins must put binArea in each.
	g := New(region100(), 4) // bins 25x25
	g.AddMovable(50, 50, 50, 50)
	for j := 1; j <= 2; j++ {
		for i := 1; i <= 2; i++ {
			if got := g.Mov[j*4+i]; math.Abs(got-625) > 1e-9 {
				t.Errorf("bin (%d,%d) = %v, want 625", i, j, got)
			}
		}
	}
	if got := layerSum(g.Mov); math.Abs(got-2500) > 1e-9 {
		t.Errorf("total = %v", got)
	}
}

func TestOverflowUniformIsZero(t *testing.T) {
	g := New(region100(), 8)
	// Tile the region exactly with 16 cells of 2x2 bins each; they are
	// wide enough to escape smoothing, so the result is perfectly even.
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			g.AddMovable(12.5+25*float64(i), 12.5+25*float64(j), 25, 25)
		}
	}
	if got := g.Overflow(1.0); got > 1e-9 {
		t.Errorf("uniform overflow = %v, want 0", got)
	}
}

func TestOverflowAllStacked(t *testing.T) {
	g := New(region100(), 8)
	// Everything piled onto the same 2x2-bin patch: overflow ~ 0.9.
	for k := 0; k < 10; k++ {
		g.AddMovable(50, 50, 2*g.BinW, 2*g.BinH)
	}
	tau := g.Overflow(1.0)
	if tau < 0.8 || tau > 1.0 {
		t.Errorf("stacked overflow = %v, want in (0.8, 1]", tau)
	}
}

func TestOverflowRespectsTargetDensity(t *testing.T) {
	g := New(region100(), 8)
	// Half-fill every bin uniformly: fine at rhoT=1, overflowing at 0.25.
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			cx := g.Region.Lx + (float64(i)+0.5)*g.BinW
			cy := g.Region.Ly + (float64(j)+0.5)*g.BinH
			g.AddMovable(cx, cy, g.BinW, g.BinH/2)
		}
	}
	if got := g.Overflow(1.0); got > 1e-9 {
		t.Errorf("overflow at rhoT=1 = %v", got)
	}
	if got := g.Overflow(0.25); got < 0.4 {
		t.Errorf("overflow at rhoT=0.25 = %v, want >= 0.4", got)
	}
}

func TestOverflowAccountsFixed(t *testing.T) {
	g := New(region100(), 4)
	// Fixed macro fills bins (1..2, 1..2) completely.
	g.AddFixed(geom.Rect{Lx: 25, Ly: 25, Hx: 75, Hy: 75})
	// A 2x2-bin movable cell sits exactly on the blocked patch; it is
	// large enough to escape smoothing, so all of it overflows.
	g.AddMovable(50, 50, 50, 50)
	tau := g.Overflow(1.0)
	if math.Abs(tau-1.0) > 1e-9 {
		t.Errorf("overflow on blocked bin = %v, want 1", tau)
	}
}

func TestChargeZeroMean(t *testing.T) {
	g := New(region100(), 16)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 50; k++ {
		g.AddMovable(rng.Float64()*100, rng.Float64()*100, 3, 3)
	}
	g.AddFixed(geom.Rect{Lx: 10, Ly: 10, Hx: 30, Hy: 20})
	out := make([]float64, 16*16)
	g.Charge(out)
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("charge sum = %v, want 0", sum)
	}
}

func TestClearMovableKeepsFixed(t *testing.T) {
	g := New(region100(), 8)
	g.AddFixed(geom.Rect{Lx: 0, Ly: 0, Hx: 10, Hy: 10})
	g.AddMovable(50, 50, 5, 5)
	g.AddFiller(20, 20, 5, 5)
	g.ClearMovable()
	if layerSum(g.Mov) != 0 || layerSum(g.Fill) != 0 {
		t.Error("ClearMovable left movable/filler area")
	}
	fixed := 0.0
	for _, v := range g.Fixed {
		fixed += v
	}
	if fixed == 0 {
		t.Error("ClearMovable erased fixed layer")
	}
}

// layerSum returns the total area a grid layer holds.
func layerSum(layer []float64) float64 {
	s := 0.0
	for _, v := range layer {
		s += v
	}
	return s
}

// Property: rasterized movable charge always equals the full cell area;
// footprints overhanging the boundary are reflected inside (Neumann
// walls), never truncated.
func TestSplatAreaProperty(t *testing.T) {
	g := New(region100(), 32)
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 200; k++ {
		g.ClearMovable()
		w := 4 + rng.Float64()*30 // larger than sqrt2*binW, no smoothing
		h := 5 + rng.Float64()*30
		cx := rng.Float64() * 100
		cy := rng.Float64() * 100
		g.AddMovable(cx, cy, w, h)
		want := w * h
		if got := layerSum(g.Mov); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("splat area %v, exact %v (cell %vx%v at %v,%v)", got, want, w, h, cx, cy)
		}
	}
}

// Property: smoothed small cells near the boundary conserve charge too.
func TestSplatConservationAtCorners(t *testing.T) {
	g := New(region100(), 32)
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: 50, Y: 0}} {
		g.ClearMovable()
		g.AddMovable(p.X, p.Y, 1, 1)
		if got := layerSum(g.Mov); math.Abs(got-1) > 1e-9 {
			t.Fatalf("corner cell at %v conserved %v, want 1", p, got)
		}
	}
}

func TestOverflowPerBin(t *testing.T) {
	g := New(region100(), 4)
	// Four bins at 2x target (rhoT=0.5, fully dense bins), others empty.
	g.AddMovable(25, 25, 50, 50) // fills bins (0..1, 0..1) to density 1.0
	got := g.OverflowPerBin(0.5)
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("OverflowPerBin = %v, want 100 (percent)", got)
	}
	if g.OverflowPerBin(1.0) != 0 {
		t.Errorf("OverflowPerBin at rhoT=1 should be 0")
	}
}
