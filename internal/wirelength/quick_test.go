package wirelength

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// designFromSeed builds a small random design deterministically.
func designFromSeed(seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("q", geom.Rect{Hx: 50, Hy: 50})
	n := 3 + rng.Intn(10)
	var idx []int
	for i := 0; i < n; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{
			W: 1, H: 1, X: rng.Float64() * 50, Y: rng.Float64() * 50,
		}))
	}
	nets := 1 + rng.Intn(5)
	for k := 0; k < nets; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(4)
		for p := 0; p < deg; p++ {
			d.Connect(idx[rng.Intn(n)], ni, 0, 0)
		}
	}
	return d, idx
}

// Property: WA never exceeds HPWL, LSE never falls below it, and both
// bracket it for every random design and smoothing parameter.
func TestQuickSandwichProperty(t *testing.T) {
	f := func(seed int64, gammaRaw uint8) bool {
		d, idx := designFromSeed(seed)
		gamma := 0.1 + float64(gammaRaw)/16
		hpwl := d.HPWL()
		m := NewCompiled(d.Compile(), idx, gamma)
		wa := m.Cost()
		m.Kind = LSE
		lse := m.Cost()
		return wa <= hpwl+1e-9 && lse >= hpwl-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: translating the whole design never changes the smooth cost.
func TestQuickTranslationInvariance(t *testing.T) {
	f := func(seed int64, dxRaw, dyRaw int8) bool {
		d, idx := designFromSeed(seed)
		cv := d.Compile()
		m := NewCompiled(cv, idx, 1.0)
		before := m.Cost()
		dx, dy := float64(dxRaw)/10, float64(dyRaw)/10
		for i := range cv.PosX {
			cv.PosX[i] += dx
			cv.PosY[i] += dy
		}
		after := m.Cost()
		return math.Abs(after-before) < 1e-6*(1+math.Abs(before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the gradient of a cell not on any net is exactly zero.
func TestQuickIsolatedCellZeroGradient(t *testing.T) {
	f := func(seed int64) bool {
		d, idx := designFromSeed(seed)
		iso := d.AddCell(netlist.Cell{W: 1, H: 1, X: 25, Y: 25})
		idx = append(idx, iso)
		m := NewCompiled(d.Compile(), idx, 1.0)
		grad := make([]float64, 2*len(idx))
		m.CostAndGradient(grad)
		k := len(idx) - 1
		return grad[k] == 0 && grad[k+len(idx)] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: shrinking gamma tightens the WA underestimate monotonically
// (statistically; checked pairwise on the same design).
func TestQuickGammaMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		d, idx := designFromSeed(seed)
		hpwl := d.HPWL()
		m := NewCompiled(d.Compile(), idx, 4.0)
		coarse := math.Abs(hpwl - m.Cost())
		m.Gamma = 0.25
		fine := math.Abs(hpwl - m.Cost())
		return fine <= coarse+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
