package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// randomDesign builds n cells and nets of mixed degree with one fixed pad.
func randomDesign(n int, seed int64) (*netlist.Design, []int) {
	d := netlist.New("w", geom.Rect{Hx: 100, Hy: 100})
	rng := rand.New(rand.NewSource(seed))
	var idx []int
	for i := 0; i < n; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{
			W: 2, H: 2, X: rng.Float64() * 100, Y: rng.Float64() * 100,
		}))
	}
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 50, Kind: netlist.Pad, Fixed: true})
	for k := 0; k < n; k++ {
		deg := 2 + rng.Intn(4)
		ni := d.AddNet("", 1)
		for p := 0; p < deg; p++ {
			ci := idx[rng.Intn(len(idx))]
			d.Connect(ci, ni, rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	// One net to the fixed pad.
	ni := d.AddNet("to_pad", 1.5)
	d.Connect(pad, ni, 0, 0)
	d.Connect(idx[0], ni, 0, 0)
	return d, idx
}

func TestWAApproachesHPWL(t *testing.T) {
	d, idx := randomDesign(30, 1)
	hpwl := d.HPWL()
	prevErr := math.Inf(1)
	for _, gamma := range []float64{10, 1, 0.1, 0.01} {
		m := NewCompiled(d.Compile(), idx, gamma)
		err := math.Abs(m.Cost() - hpwl)
		if err > prevErr+1e-9 {
			t.Errorf("gamma=%v: WA error %v did not shrink from %v", gamma, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-3*hpwl {
		t.Errorf("WA at gamma=0.01 still off by %v (HPWL %v)", prevErr, hpwl)
	}
}

func TestWAUnderestimatesHPWL(t *testing.T) {
	d, idx := randomDesign(25, 2)
	m := NewCompiled(d.Compile(), idx, 1.0)
	if m.Cost() > d.HPWL()+1e-9 {
		t.Errorf("WA %v exceeds HPWL %v", m.Cost(), d.HPWL())
	}
}

func TestLSEOverestimatesHPWL(t *testing.T) {
	d, idx := randomDesign(25, 3)
	m := NewCompiled(d.Compile(), idx, 1.0)
	m.Kind = LSE
	if m.Cost() < d.HPWL()-1e-9 {
		t.Errorf("LSE %v below HPWL %v", m.Cost(), d.HPWL())
	}
	// LSE converges too.
	m.Gamma = 0.01
	if err := math.Abs(m.Cost() - d.HPWL()); err > 1e-2*d.HPWL() {
		t.Errorf("LSE at gamma=0.01 off by %v", err)
	}
}

func gradCheck(t *testing.T, kind Kind, seed int64) {
	t.Helper()
	d, idx := randomDesign(20, seed)
	cv := d.Compile()
	m := NewCompiled(cv, idx, 2.0)
	m.Kind = kind
	grad := make([]float64, 2*len(idx))
	m.CostAndGradient(grad)
	h := 1e-5
	rng := rand.New(rand.NewSource(seed + 100))
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(len(idx))
		ci := idx[k]
		isY := rng.Intn(2) == 1
		var num float64
		if isY {
			y0 := cv.PosY[ci]
			cv.PosY[ci] = y0 + h
			cp := m.Cost()
			cv.PosY[ci] = y0 - h
			cm := m.Cost()
			cv.PosY[ci] = y0
			num = (cp - cm) / (2 * h)
		} else {
			x0 := cv.PosX[ci]
			cv.PosX[ci] = x0 + h
			cp := m.Cost()
			cv.PosX[ci] = x0 - h
			cm := m.Cost()
			cv.PosX[ci] = x0
			num = (cp - cm) / (2 * h)
		}
		slot := k
		if isY {
			slot += len(idx)
		}
		if diff := math.Abs(num - grad[slot]); diff > 1e-5*(1+math.Abs(num)) {
			t.Errorf("kind=%v cell %d axisY=%v: numeric %v analytic %v", kind, k, isY, num, grad[slot])
		}
	}
}

func TestWAGradientNumeric(t *testing.T)  { gradCheck(t, WA, 4) }
func TestLSEGradientNumeric(t *testing.T) { gradCheck(t, LSE, 5) }

func TestGradientTranslationInvariance(t *testing.T) {
	// For a net with all pins movable, the per-net gradient sums to ~0
	// (moving the whole net does not change its span).
	d := netlist.New("ti", geom.Rect{Hx: 100, Hy: 100})
	var idx []int
	for i := 0; i < 5; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{W: 1, H: 1, X: float64(10 + i*7), Y: float64(5 + i*11)}))
	}
	ni := d.AddNet("all", 1)
	for _, ci := range idx {
		d.Connect(ci, ni, 0, 0)
	}
	m := NewCompiled(d.Compile(), idx, 1.5)
	grad := make([]float64, 2*len(idx))
	m.CostAndGradient(grad)
	sx, sy := 0.0, 0.0
	for k := range idx {
		sx += grad[k]
		sy += grad[k+len(idx)]
	}
	if math.Abs(sx) > 1e-9 || math.Abs(sy) > 1e-9 {
		t.Errorf("gradient sums = (%v, %v), want 0", sx, sy)
	}
}

func TestFixedPinsPullMovable(t *testing.T) {
	// A movable cell tied to a fixed pad at x=0: gradient must point
	// right (positive), so descent pulls the cell toward the pad.
	d := netlist.New("pull", geom.Rect{Hx: 100, Hy: 100})
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 50})
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 50, Fixed: true, Kind: netlist.Pad})
	ni := d.AddNet("n", 1)
	d.Connect(c, ni, 0, 0)
	d.Connect(pad, ni, 0, 0)
	m := NewCompiled(d.Compile(), []int{c}, 1.0)
	grad := make([]float64, 2)
	cost := m.CostAndGradient(grad)
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	if grad[0] <= 0 {
		t.Errorf("dW/dx = %v, want > 0 (descent moves cell toward pad)", grad[0])
	}
	if math.Abs(grad[1]) > 1e-9 {
		t.Errorf("dW/dy = %v, want 0 (same y)", grad[1])
	}
}

func TestNetWeightScalesGradient(t *testing.T) {
	d := netlist.New("wt", geom.Rect{Hx: 100, Hy: 100})
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 50})
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 50, Fixed: true})
	ni := d.AddNet("n", 3)
	d.Connect(c, ni, 0, 0)
	d.Connect(pad, ni, 0, 0)
	g3 := make([]float64, 2)
	c3 := NewCompiled(d.Compile(), []int{c}, 1.0).CostAndGradient(g3)
	d.Nets[ni].Weight = 1
	g1 := make([]float64, 2)
	c1 := NewCompiled(d.Compile(), []int{c}, 1.0).CostAndGradient(g1)
	if math.Abs(c3-3*c1) > 1e-9 || math.Abs(g3[0]-3*g1[0]) > 1e-9 {
		t.Errorf("weight 3 not tripling: cost %v vs %v, grad %v vs %v", c3, c1, g3[0], g1[0])
	}
}

func TestSinglePinNetIgnored(t *testing.T) {
	d := netlist.New("s", geom.Rect{Hx: 10, Hy: 10})
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 5, Y: 5})
	ni := d.AddNet("single", 1)
	d.Connect(c, ni, 0, 0)
	m := NewCompiled(d.Compile(), []int{c}, 1.0)
	grad := make([]float64, 2)
	if cost := m.CostAndGradient(grad); cost != 0 || grad[0] != 0 {
		t.Errorf("single-pin net produced cost %v grad %v", cost, grad)
	}
}

func TestStabilityLargeCoordinates(t *testing.T) {
	// Coordinates far apart relative to gamma must not produce NaN/Inf.
	d := netlist.New("big", geom.Rect{Hx: 1e7, Hy: 1e7})
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 0})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 9.9e6, Y: 9.9e6})
	ni := d.AddNet("n", 1)
	d.Connect(a, ni, 0, 0)
	d.Connect(b, ni, 0, 0)
	m := NewCompiled(d.Compile(), []int{a, b}, 0.5)
	grad := make([]float64, 4)
	cost := m.CostAndGradient(grad)
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		t.Fatalf("cost = %v", cost)
	}
	for i, g := range grad {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("grad[%d] = %v", i, g)
		}
	}
	if math.Abs(cost-2*9.9e6) > 1 {
		t.Errorf("cost = %v, want ~%v", cost, 2*9.9e6)
	}
}

func TestGradientBounded(t *testing.T) {
	// WA per-pin gradients are bounded (roughly by 1 + span/gamma terms
	// canceling); sanity-check no blowup across random layouts.
	d, idx := randomDesign(40, 7)
	m := NewCompiled(d.Compile(), idx, 0.8)
	grad := make([]float64, 2*len(idx))
	m.CostAndGradient(grad)
	for i, g := range grad {
		if math.Abs(g) > 100 {
			t.Fatalf("grad[%d] = %v, suspicious blowup", i, g)
		}
	}
}

func BenchmarkWACostAndGradient(b *testing.B) {
	d, idx := randomDesign(5000, 11)
	m := NewCompiled(d.Compile(), idx, 1.0)
	grad := make([]float64, 2*len(idx))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CostAndGradient(grad)
	}
}
