package nesterov

import (
	"math"
	"math/rand"
	"testing"
)

// start is a zero Optimizer started at v0.
func start(v0 []float64, g GradFunc, clamp ClampFunc, seedStep float64) *Optimizer {
	o := &Optimizer{}
	o.Start(v0, g, clamp, seedStep)
	return o
}

// restore is a zero Optimizer restored from s.
func restore(s State, g GradFunc, clamp ClampFunc, seedStep float64) *Optimizer {
	o := &Optimizer{}
	o.Restore(s, g, clamp, seedStep)
	return o
}

// quadratic builds f(x) = 1/2 sum d_i (x_i - t_i)^2 with gradient
// d_i (x_i - t_i); its Lipschitz constant is max d_i.
type quadratic struct {
	d, t []float64
}

func (q quadratic) cost(v []float64) float64 {
	s := 0.0
	for i := range v {
		e := v[i] - q.t[i]
		s += 0.5 * q.d[i] * e * e
	}
	return s
}

func (q quadratic) grad(v, g []float64) {
	for i := range v {
		g[i] = q.d[i] * (v[i] - q.t[i])
	}
}

func newQuad(n int, seed int64) quadratic {
	rng := rand.New(rand.NewSource(seed))
	q := quadratic{d: make([]float64, n), t: make([]float64, n)}
	for i := 0; i < n; i++ {
		q.d[i] = 0.5 + rng.Float64()*4.5
		q.t[i] = rng.NormFloat64() * 10
	}
	return q
}

func TestNesterovConvergesOnQuadratic(t *testing.T) {
	q := newQuad(50, 1)
	v0 := make([]float64, 50)
	o := start(v0, q.grad, nil, 0.01)
	for k := 0; k < 300; k++ {
		o.Step(false)
	}
	if c := q.cost(o.U); c > 1e-6 {
		t.Errorf("cost after 300 iterations = %v, want ~0", c)
	}
}

func TestNesterovFasterThanGradientDescent(t *testing.T) {
	// Ill-conditioned quadratic: Nesterov's O(1/k^2) rate should beat
	// plain gradient descent with the same Lipschitz steplength.
	n := 40
	q := quadratic{d: make([]float64, n), t: make([]float64, n)}
	for i := 0; i < n; i++ {
		q.d[i] = 0.01 + 3*float64(i)/float64(n) // condition number ~300
		q.t[i] = 5
	}
	v0 := make([]float64, n)
	iters := 150

	o := start(v0, q.grad, nil, 0.01)
	for k := 0; k < iters; k++ {
		o.Step(false)
	}
	nesterovCost := q.cost(o.U)

	// Plain gradient descent with exact 1/L step.
	gd := append([]float64(nil), v0...)
	g := make([]float64, n)
	step := 1.0 / 3.01
	for k := 0; k < iters; k++ {
		q.grad(gd, g)
		for i := range gd {
			gd[i] -= step * g[i]
		}
	}
	gdCost := q.cost(gd)
	if nesterovCost >= gdCost {
		t.Errorf("Nesterov %v not faster than GD %v after %d iters", nesterovCost, gdCost, iters)
	}
	if nesterovCost > 1e-2*gdCost {
		t.Errorf("Nesterov %v not clearly faster than GD %v", nesterovCost, gdCost)
	}
}

func TestLipschitzPredictionOnQuadratic(t *testing.T) {
	// On an isotropic quadratic with d_i = L the predicted steplength is
	// exactly 1/L from the first iteration.
	n := 10
	const L = 4.0
	q := quadratic{d: make([]float64, n), t: make([]float64, n)}
	for i := range q.d {
		q.d[i] = L
		q.t[i] = 1
	}
	v0 := make([]float64, n)
	o := start(v0, q.grad, nil, 0.01)
	alpha, _ := o.Step(false)
	if math.Abs(alpha-1/L) > 1e-9 {
		t.Errorf("steplength = %v, want %v", alpha, 1/L)
	}
}

func TestBacktrackingTriggersOnAbruptCurvatureIncrease(t *testing.T) {
	// Start on a flat quadratic, then switch to a much steeper one: the
	// stale Lipschitz estimate over-predicts the step and BkTrk must
	// engage.
	n := 8
	soft := quadratic{d: make([]float64, n), t: make([]float64, n)}
	hard := quadratic{d: make([]float64, n), t: make([]float64, n)}
	for i := 0; i < n; i++ {
		soft.d[i] = 0.04 + 0.003*float64(i) // slight anisotropy: no exact 1-step convergence
		hard.d[i] = 50
		hard.t[i] = 1
	}
	active := &soft
	grad := func(v, g []float64) { active.grad(v, g) }
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = 3
	}
	o := start(v0, grad, nil, 0.01)
	for k := 0; k < 5; k++ {
		o.Step(false)
	}
	active = &hard
	_, bt := o.Step(false)
	if bt == 0 {
		t.Error("no backtracking after 1000x curvature increase")
	}
}

func TestBacktrackingShrinksCommittedStep(t *testing.T) {
	// The Sec. V-C mechanism in miniature: after an abrupt curvature
	// increase (the placement analogue is the iterative lambda/gamma
	// update), the raw Lipschitz prediction overestimates the steplength;
	// BkTrk must commit a much smaller one than the unchecked run.
	n := 8
	run := func(disable bool) float64 {
		soft := quadratic{d: make([]float64, n), t: make([]float64, n)}
		hard := quadratic{d: make([]float64, n), t: make([]float64, n)}
		for i := 0; i < n; i++ {
			soft.d[i] = 0.02 + 0.01*float64(i)
			hard.d[i] = 50
			hard.t[i] = 1
		}
		active := &soft
		grad := func(v, g []float64) { active.grad(v, g) }
		v0 := make([]float64, n)
		for i := range v0 {
			v0[i] = 3 + 0.2*float64(i)
		}
		o := start(v0, grad, nil, 0.01)
		for k := 0; k < 3; k++ {
			o.Step(disable)
		}
		active = &hard
		// Second post-switch step: the prediction now mixes one stale and
		// one fresh gradient and overshoots without BkTrk.
		o.Step(disable)
		alpha, _ := o.Step(disable)
		return alpha
	}
	withBT := run(false)
	withoutBT := run(true)
	if withBT >= 0.5*withoutBT {
		t.Errorf("committed alpha with BkTrk %v, without %v: expected clear shrink", withBT, withoutBT)
	}
}

func TestClampKeepsIteratesInBox(t *testing.T) {
	q := newQuad(20, 3)
	for i := range q.t {
		q.t[i] = 100 // optimum far outside the box
	}
	clamp := func(v []float64) {
		for i := range v {
			if v[i] > 1 {
				v[i] = 1
			}
			if v[i] < -1 {
				v[i] = -1
			}
		}
	}
	o := start(make([]float64, 20), q.grad, clamp, 0.01)
	for k := 0; k < 50; k++ {
		o.Step(false)
	}
	for i, v := range o.U {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("U[%d] = %v escaped box", i, v)
		}
	}
	// Clamped optimum is the box face nearest the target.
	for i, v := range o.U {
		if math.Abs(v-1) > 1e-6 {
			t.Errorf("U[%d] = %v, want 1", i, v)
		}
	}
}

func TestMaxStepCap(t *testing.T) {
	// Start fixes maxStep = 1e9*seedStep (about 1e-3 here), far below the
	// quadratic's 1/L, so the first prediction is the cap.
	q := newQuad(5, 4)
	o := start(make([]float64, 5), q.grad, nil, 1e-12)
	alpha, _ := o.Step(false)
	if alpha > o.maxStep || o.maxStep > 1.01e-3 {
		t.Errorf("alpha = %v exceeds maxStep %v", alpha, o.maxStep)
	}
}

func TestAkRecurrence(t *testing.T) {
	// a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2 starting from 1 grows ~ k/2;
	// verify through the optimizer's behavior indirectly: after many
	// steps on a trivial function nothing NaNs.
	q := newQuad(3, 5)
	o := start(make([]float64, 3), q.grad, nil, 0.01)
	for k := 0; k < 500; k++ {
		alpha, _ := o.Step(false)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			t.Fatalf("alpha = %v at step %d", alpha, k)
		}
	}
	for i, v := range o.U {
		if math.IsNaN(v) {
			t.Fatalf("U[%d] = NaN", i)
		}
	}
}

func BenchmarkNesterovStep(b *testing.B) {
	q := newQuad(10000, 10)
	o := start(make([]float64, 10000), q.grad, nil, 0.01)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		o.Step(false)
	}
}

// TestStationaryMatchesNorm: Step's early-exit zero test decides as
// norm(g) == 0 does, on every vector that could tell them apart.
func TestStationaryMatchesNorm(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name string
		g    []float64
	}{
		{"empty", nil},
		{"zeros", []float64{0, 0, 0, 0}},
		{"negative zeros", []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		{"subnormals", []float64{tiny, -tiny, 1e-310, 0}},
		{"subnormal squares to zero, sum too", []float64{1e-170, 1e-170, 1e-170}},
		{"NaN", []float64{0, math.NaN(), 0}},
		{"+Inf", []float64{0, 0, math.Inf(1)}},
		{"-Inf", []float64{math.Inf(-1), 0}},
		{"overflowing square", []float64{0, 1e200}},
		{"non-zero last", []float64{0, 0, 0, 0, 0, 0, 0, 1e-150}},
		{"mixed", []float64{tiny, math.NaN(), math.Inf(1), -3}},
	} {
		if got, want := stationary(c.g), norm(c.g) == 0; got != want {
			t.Errorf("%s: stationary(%v) = %v, norm == 0 is %v", c.name, c.g, got, want)
		}
	}
}
