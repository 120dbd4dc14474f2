package nonlinear

import (
	"math"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

func TestBellShapeAndSupport(t *testing.T) {
	const r = 4.0
	// Peak at zero, zero outside the radius, continuous at the knee.
	if p, _ := bell(0, r); p != 1 {
		t.Errorf("bell(0) = %v, want 1", p)
	}
	if p, _ := bell(r, r); p != 0 {
		t.Errorf("bell(r) = %v, want 0", p)
	}
	if p, _ := bell(r+1, r); p != 0 {
		t.Errorf("bell(r+1) = %v, want 0", p)
	}
	// Continuity at d = r/2 (the piece boundary).
	pl, _ := bell(r/2-1e-9, r)
	pr, _ := bell(r/2+1e-9, r)
	if math.Abs(pl-pr) > 1e-6 {
		t.Errorf("bell discontinuous at knee: %v vs %v", pl, pr)
	}
	// Symmetry.
	p1, d1 := bell(1.3, r)
	p2, d2 := bell(-1.3, r)
	if math.Abs(p1-p2) > 1e-12 || math.Abs(d1+d2) > 1e-12 {
		t.Errorf("bell not even: p %v/%v, dp %v/%v", p1, p2, d1, d2)
	}
}

func TestBellDerivativeNumeric(t *testing.T) {
	const r = 3.0
	h := 1e-6
	for _, d := range []float64{-2.5, -1.6, -0.4, 0.7, 1.4, 2.9} {
		_, dp := bell(d, r)
		pp, _ := bell(d+h, r)
		pm, _ := bell(d-h, r)
		num := (pp - pm) / (2 * h)
		if math.Abs(num-dp) > 1e-4 {
			t.Errorf("d=%v: numeric %v analytic %v", d, num, dp)
		}
	}
}

func TestModelChargeConservation(t *testing.T) {
	d := netlist.New("b", geom.Rect{Hx: 64, Hy: 64})
	var idx []int
	idx = append(idx, d.AddCell(netlist.Cell{W: 6, H: 4, X: 20, Y: 30}))
	idx = append(idx, d.AddCell(netlist.Cell{W: 2, H: 2, X: 45, Y: 10}))
	md := newBellDensity(d.Compile(), idx, 32)
	md.penalty(1, nil)
	total := 0.0
	for _, v := range md.rho {
		total += v
	}
	want := 6*4 + 2*2.0
	if math.Abs(total-want) > 1e-6*want {
		t.Errorf("total bell charge = %v, want %v", total, want)
	}
}

func TestModelDensityGradientNumeric(t *testing.T) {
	d := netlist.New("bg", geom.Rect{Hx: 64, Hy: 64})
	var idx []int
	// Two overlapping cells create a density error gradient.
	idx = append(idx, d.AddCell(netlist.Cell{W: 8, H: 8, X: 30, Y: 32}))
	idx = append(idx, d.AddCell(netlist.Cell{W: 8, H: 8, X: 34, Y: 32}))
	cv := d.Compile()
	md := newBellDensity(cv, idx, 32)
	grad := make([]float64, 4)
	md.penalty(1, grad)

	h := 0.02
	x0 := cv.PosX[idx[0]]
	cv.PosX[idx[0]] = x0 + h
	cp := md.penalty(1, nil)
	cv.PosX[idx[0]] = x0 - h
	cm := md.penalty(1, nil)
	cv.PosX[idx[0]] = x0
	num := (cp - cm) / (2 * h)
	if math.Abs(num-grad[0]) > 0.15*(math.Abs(num)+math.Abs(grad[0])+1e-12) {
		t.Errorf("numeric dD/dx = %v, analytic = %v", num, grad[0])
	}
	// Overlapping pair: descent separates them (left cell pushed left).
	if grad[0] <= 0 {
		t.Errorf("dD/dx_left = %v, want > 0", grad[0])
	}
}
