package metrics

import (
	"math"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

func uniformDesign() *netlist.Design {
	d := netlist.New("u", geom.Rect{Hx: 64, Hy: 64})
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			d.AddCell(netlist.Cell{W: 8, H: 8, X: 4 + 8*float64(i), Y: 4 + 8*float64(j)})
		}
	}
	return d
}

func TestOverflowUniformZero(t *testing.T) {
	d := uniformDesign()
	if tau := Measure("", "", d, 16, 0, false).Overflow; tau > 1e-9 {
		t.Errorf("uniform overflow = %v", tau)
	}
}

func TestOverflowStackedHigh(t *testing.T) {
	d := netlist.New("s", geom.Rect{Hx: 64, Hy: 64})
	for k := 0; k < 16; k++ {
		d.AddCell(netlist.Cell{W: 16, H: 16, X: 32, Y: 32})
	}
	if tau := Measure("", "", d, 16, 0, false).Overflow; tau < 0.7 {
		t.Errorf("stacked overflow = %v, want high", tau)
	}
}

func TestScaledHPWLPenalty(t *testing.T) {
	d := uniformDesign()
	// A 2-pin net across the region gives nonzero HPWL.
	n := d.AddNet("n", 1)
	d.Connect(0, n, 0, 0)
	d.Connect(63, n, 0, 0)
	hpwl := d.HPWL()
	// Uniform at density 1.0: no penalty.
	if s := ScaledHPWL(d, 16); math.Abs(s-hpwl) > 1e-9 {
		t.Errorf("uniform sHPWL = %v, HPWL = %v", s, hpwl)
	}
	// Against a tight target density the same layout is penalized.
	d.TargetDensity = 0.5
	if s := ScaledHPWL(d, 16); s <= hpwl {
		t.Errorf("sHPWL %v not above HPWL %v at rhoT=0.5", s, hpwl)
	}
}

func TestMeasureFields(t *testing.T) {
	d := uniformDesign()
	r := Measure("circ", "ePlace", d, 16, 1.5, true)
	if r.Circuit != "circ" || r.Placer != "ePlace" || !r.Legal || r.Seconds != 1.5 {
		t.Errorf("report = %+v", r)
	}
	if r.Overflow > 1e-9 || r.Overlap > 1e-9 {
		t.Errorf("uniform layout: %+v", r)
	}
	if r.ScaledHPWL < r.HPWL {
		t.Errorf("sHPWL %v below HPWL %v", r.ScaledHPWL, r.HPWL)
	}
}
