// Package baseline_test exercises the three comparison placers on the
// same synthetic circuits and checks the quality ordering the paper's
// tables report: analytic placers close together, min-cut far behind.
package baseline_test

import (
	"testing"

	"eplace/internal/baseline/mincut"
	"eplace/internal/baseline/nonlinear"
	"eplace/internal/baseline/quadratic"
	"eplace/internal/metrics"
	"eplace/internal/netlist"
	"eplace/internal/synth"
)

func circuit(name string, n int) *netlist.Design {
	return synth.Generate(synth.Spec{Name: name, NumCells: n, NumFixedMacros: 3})
}

func TestQuadraticSpreads(t *testing.T) {
	d := circuit("q", 600)
	res := quadratic.Place(d, d.Movable(), quadratic.Options{GridM: 32})
	if res.Overflow > 0.2 {
		t.Errorf("quadratic overflow = %v", res.Overflow)
	}
	if res.HPWL <= 0 {
		t.Error("no HPWL")
	}
	for _, ci := range d.Movable() {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
			t.Fatalf("cell %d escaped region", ci)
		}
	}
}

func TestQuadraticBeatsRandom(t *testing.T) {
	d := circuit("qr", 600)
	randomHPWL := d.HPWL()
	res := quadratic.Place(d, d.Movable(), quadratic.Options{GridM: 32})
	if res.HPWL >= randomHPWL {
		t.Errorf("quadratic HPWL %v not below random %v", res.HPWL, randomHPWL)
	}
}

func TestBellshapeSpreads(t *testing.T) {
	d := circuit("b", 400)
	res := nonlinear.PlaceBell(d, d.Movable(), nonlinear.Options{GridM: 32})
	if res.Overflow > 0.25 {
		t.Errorf("bellshape overflow = %v", res.Overflow)
	}
	if res.CostEvals == 0 || res.GradEvals == 0 {
		t.Error("no line-search accounting")
	}
	for _, ci := range d.Movable() {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
			t.Fatalf("cell %d escaped region", ci)
		}
	}
}

func TestBellshapeLineSearchDominatesEvals(t *testing.T) {
	// Footnote 2: the line search burns most of the objective
	// evaluations (>60% of FFTPL's runtime there).
	d := circuit("bl", 300)
	res := nonlinear.PlaceBell(d, d.Movable(), nonlinear.Options{GridM: 32, MaxOuter: 10})
	if res.CostEvals < res.GradEvals {
		t.Errorf("cost evals %d below grad evals %d: line search suspiciously cheap",
			res.CostEvals, res.GradEvals)
	}
}

func TestMincutPlaces(t *testing.T) {
	d := circuit("m", 600)
	randomHPWL := d.HPWL()
	res := mincut.Place(d, d.Movable(), mincut.Options{})
	if res.Bisections == 0 {
		t.Error("no bisections")
	}
	if res.HPWL >= randomHPWL {
		t.Errorf("min-cut HPWL %v not below random start %v", res.HPWL, randomHPWL)
	}
	for _, ci := range d.Movable() {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
			t.Fatalf("cell %d escaped region", ci)
		}
	}
	// Min-cut leaves moderate overlap but spreads cells broadly.
	if tau := metrics.Measure("", "", d, 32, 0, false).Overflow; tau > 0.5 {
		t.Errorf("min-cut overflow = %v, expected rough spreading", tau)
	}
}

func TestMincutDeterministic(t *testing.T) {
	d1 := circuit("det", 300)
	mincut.Place(d1, d1.Movable(), mincut.Options{Seed: 5})
	d2 := circuit("det", 300)
	mincut.Place(d2, d2.Movable(), mincut.Options{Seed: 5})
	for i := range d1.Cells {
		if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
			t.Fatalf("cell %d differs between identical runs", i)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	d := circuit("e", 50)
	if r := quadratic.Place(d, nil, quadratic.Options{}); r.Iterations != 0 {
		t.Error("quadratic on empty input")
	}
	if r := nonlinear.PlaceBell(d, nil, nonlinear.Options{}); r.OuterIterations != 0 {
		t.Error("bellshape on empty input")
	}
	if r := mincut.Place(d, nil, mincut.Options{}); r.Bisections != 0 {
		t.Error("mincut on empty input")
	}
}
