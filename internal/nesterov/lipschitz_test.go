package nesterov

import (
	"math"
	"testing"
)

// TestLipschitzStepNonFinite locks the guard against non-finite inputs:
// an Inf position delta with a finite gradient delta used to slip past
// the NaN check and return +Inf whenever maxStep was not finite.
func TestLipschitzStepNonFinite(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		maxStep float64
		v, vp   []float64
		g, gp   []float64
		want    float64
	}{
		{
			name:    "inf-dv-finite-dg-finite-cap",
			maxStep: 1e6,
			v:       []float64{inf, 0}, vp: []float64{0, 0},
			g: []float64{1, 0}, gp: []float64{0, 0},
			want: 1e6,
		},
		{
			name:    "inf-dv-finite-dg-inf-cap",
			maxStep: inf,
			v:       []float64{inf, 0}, vp: []float64{0, 0},
			g: []float64{1, 0}, gp: []float64{0, 0},
			want: 0, // both ratio and cap are +Inf: degrade to a no-op step
		},
		{
			name:    "inf-gradient",
			maxStep: 1e6,
			v:       []float64{1, 0}, vp: []float64{0, 0},
			g: []float64{inf, 0}, gp: []float64{0, 0},
			want: 1e6, // dv/dg underflows to 0, which maps to the cap
		},
		{
			name:    "nan-gradient",
			maxStep: 1e6,
			v:       []float64{1, 0}, vp: []float64{0, 0},
			g: []float64{math.NaN(), 0}, gp: []float64{0, 0},
			want: 1e6,
		},
		{
			name:    "inf-dv-inf-dg",
			maxStep: 1e6,
			v:       []float64{inf, 0}, vp: []float64{0, 0},
			g: []float64{inf, 0}, gp: []float64{0, 0},
			want: 1e6, // Inf/Inf is NaN, which maps to the cap
		},
		{
			name:    "zero-dg-inf-cap",
			maxStep: inf,
			v:       []float64{1, 0}, vp: []float64{0, 0},
			g: []float64{1, 0}, gp: []float64{1, 0},
			want: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := &Optimizer{maxStep: c.maxStep}
			got := o.lipschitzStep(c.v, c.vp, c.g, c.gp)
			if got != c.want {
				t.Fatalf("lipschitzStep = %v, want %v", got, c.want)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("lipschitzStep returned non-finite %v", got)
			}
		})
	}
}

// TestStepWithNonFiniteGradient checks Optimizer.Step never accepts a
// non-finite steplength even when a gradient callback reports Inf
// components mid-run (the engine's divergence guard handles the
// positions; the steplength itself must stay finite).
func TestStepWithNonFiniteGradient(t *testing.T) {
	calls := 0
	grad := func(v, g []float64) {
		calls++
		for i := range g {
			g[i] = v[i] // simple quadratic bowl
		}
		if calls == 3 { // poison one evaluation mid-run
			g[0] = math.Inf(1)
		}
	}
	o := start([]float64{1, 2}, grad, nil, 0.01)
	for k := 0; k < 4; k++ {
		alpha, _ := o.Step(false)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			t.Fatalf("step %d: non-finite alpha %v", k, alpha)
		}
	}
}

// TestStationaryPredictionIsTheCap: a pair whose two solutions are
// equal, as a stationary Step leaves them, is priced at the cap whatever
// the gradients and the cap, as an empty pair is.
func TestStationaryPredictionIsTheCap(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, maxStep := range []float64{1e6, 0, inf, nan} {
		o := &Optimizer{maxStep: maxStep}
		want := o.lipschitzStep(nil, nil, nil, nil)
		for _, c := range []struct{ v, g, gp []float64 }{
			{[]float64{1, -2}, []float64{3, 0}, []float64{0, 0}},
			{[]float64{1, -2}, []float64{0, 0}, []float64{0, 0}},
			{[]float64{inf, 0}, []float64{1, 0}, []float64{0, 0}},
			{[]float64{nan, 0}, []float64{0, 0}, []float64{0, 0}},
			{[]float64{1, 0}, []float64{inf, 0}, []float64{1, 0}},
			{[]float64{1, 0}, []float64{nan, 0}, []float64{1, 0}},
		} {
			if got := o.lipschitzStep(c.v, c.v, c.g, c.gp); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("maxStep %v, v %v, g %v, gp %v: %v, empty pair %v", maxStep, c.v, c.g, c.gp, got, want)
			}
		}
	}
}
