package nesterov

import (
	"fmt"
	"math"
	"testing"
)

// lazyOptimizer is the eight-vector recurrence Optimizer replaced, kept
// as its equivalence oracle: it holds v_{k-1} and grad f(v_{k-1}) and
// predicts each steplength from them when Step begins, where Optimizer
// carries the prediction from the Step before. It runs serially.
type lazyOptimizer struct {
	maxStep                      float64
	grad                         GradFunc
	clamp                        ClampFunc
	U, V, GradV, vPrev, gradPrev []float64
	uNext, vNext, gradNext       []float64
	a                            float64
	steps, backtracks            int
}

func startLazy(v0 []float64, g GradFunc, clamp ClampFunc, seedStep float64) *lazyOptimizer {
	n := len(v0)
	o := &lazyOptimizer{maxStep: 1e9 * seedStep, grad: g, clamp: clamp, a: 1}
	for _, p := range []*[]float64{&o.U, &o.V, &o.GradV, &o.vPrev, &o.gradPrev, &o.uNext, &o.vNext, &o.gradNext} {
		*p = make([]float64, n)
	}
	copy(o.U, v0)
	copy(o.V, v0)
	o.grad(o.V, o.GradV)
	gn := norm(o.GradV)
	if gn == 0 {
		gn = 1
	}
	scale := seedStep / gn
	for i := range o.vPrev {
		o.vPrev[i] = o.V[i] - scale*o.GradV[i]
	}
	if o.clamp != nil {
		o.clamp(o.vPrev)
	}
	o.grad(o.vPrev, o.gradPrev)
	return o
}

func (o *lazyOptimizer) lipschitzStep(v, vp, g, gp []float64) float64 {
	return (&Optimizer{maxStep: o.maxStep}).lipschitzStep(v, vp, g, gp)
}

func (o *lazyOptimizer) Step(disableBkTrk bool) (alpha float64, backtracks int) {
	aNext := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	coeff := (o.a - 1) / aNext
	if stationary(o.GradV) {
		copy(o.uNext, o.V)
		copy(o.vNext, o.V)
		o.grad(o.vNext, o.gradNext)
		o.commit(aNext)
		return 0, 0
	}
	alpha = o.lipschitzStep(o.V, o.vPrev, o.GradV, o.gradPrev)
	for bt := 0; ; bt++ {
		for i := range o.uNext {
			o.uNext[i] = o.V[i] - alpha*o.GradV[i]
		}
		if o.clamp != nil {
			o.clamp(o.uNext)
		}
		for i := range o.vNext {
			o.vNext[i] = o.uNext[i] + coeff*(o.uNext[i]-o.U[i])
		}
		if o.clamp != nil {
			o.clamp(o.vNext)
		}
		o.grad(o.vNext, o.gradNext)
		if disableBkTrk || bt >= maxBacktracks {
			break
		}
		ref := o.lipschitzStep(o.vNext, o.V, o.gradNext, o.GradV)
		if ref >= bktrkEpsilon*alpha {
			break
		}
		alpha = ref
		backtracks++
	}
	o.backtracks += backtracks
	o.commit(aNext)
	return alpha, backtracks
}

func (o *lazyOptimizer) commit(aNext float64) {
	o.steps++
	o.U, o.uNext = o.uNext, o.U
	o.vPrev, o.V, o.vNext = o.V, o.vNext, o.vPrev
	o.gradPrev, o.GradV, o.gradNext = o.GradV, o.gradNext, o.gradPrev
	o.a = aNext
}

// jumpObjective is a separable quadratic f = 1/2 sum c*d_i (x_i - t_i)^2
// whose curvature scale c changes with the number of gradient
// evaluations: 1 until call jumpAt, then jump, multiplied by grow at
// each of the maxBacktracks+1 calls after that (one Step's worth).
// Calls zeroFrom to zeroTo return a zero gradient, so the Steps that
// start on one begin at a stationary point. Each optimizer gets its own instance, so
// the two see the same objective exactly when they evaluate the same
// gradients in the same order.
type jumpObjective struct {
	d, t             []float64
	jumpAt           int
	zeroFrom, zeroTo int
	jump, grow       float64
	calls            int
	c                float64
}

func newJumpObjective(n, jumpAt, zeroFrom, zeroTo int, jump, grow float64) *jumpObjective {
	q := &jumpObjective{d: make([]float64, n), t: make([]float64, n),
		jumpAt: jumpAt, zeroFrom: zeroFrom, zeroTo: zeroTo, jump: jump, grow: grow, c: 1}
	for i := range q.d {
		q.d[i] = 0.04 + 0.003*float64(i)
		q.t[i] = 3 + 0.2*float64(i)
	}
	return q
}

func (q *jumpObjective) grad(v, g []float64) {
	q.calls++
	switch {
	case q.calls == q.jumpAt:
		q.c = q.jump
	case q.calls > q.jumpAt && q.calls <= q.jumpAt+maxBacktracks+1:
		q.c *= q.grow
	}
	if q.zeroFrom <= q.calls && q.calls <= q.zeroTo {
		clear(g)
		return
	}
	for i := range v {
		g[i] = q.c * q.d[i] * (v[i] - q.t[i])
	}
}

// TestStepMatchesLazyPrediction holds the carried prediction to the
// recurrence it replaced: started side by side with the eight-vector
// oracle on a quadratic whose curvature jumps mid-run, the optimizer
// (its updates sharded three ways) returns every accepted steplength
// and backtrack count, and holds U, V and GradV, bit for bit, with
// BkTrk on, with it off, with every backtrack failing until the cap,
// and through Steps that start at a stationary point, first and
// mid-run; halfway through each run it continues from a State/Restore
// round trip.
func TestStepMatchesLazyPrediction(t *testing.T) {
	const n, steps = 12, 40
	for _, c := range []struct {
		name             string
		disable          bool
		jumpAt           int
		zeroFrom, zeroTo int
		jump, grow       float64
		// want is what some Step of the run must show: a backtrack, the
		// cap, a zero (stationary) step, or nothing in particular.
		want string
	}{
		{"bktrk", false, 14, 0, 0, 1000, 1, "backtrack"},
		{"no-bktrk", true, 14, 0, 0, 1000, 1, ""},
		{"backtrack-cap", false, 20, 0, 0, 1, 4, "cap"},
		{"stationary-start", false, 40, 1, 4, 1000, 1, "stationary"},
		{"stationary-mid-run", false, 60, 25, 32, 1000, 1, "stationary"},
	} {
		t.Run(c.name, func(t *testing.T) {
			qo := newJumpObjective(n, c.jumpAt, c.zeroFrom, c.zeroTo, c.jump, c.grow)
			qn := newJumpObjective(n, c.jumpAt, c.zeroFrom, c.zeroTo, c.jump, c.grow)
			v0 := make([]float64, n)
			oracle := startLazy(v0, qo.grad, nil, 0.01)
			o := start(v0, qn.grad, nil, 0.01)
			o.Workers = 3 // sharded updates, whatever the machine
			seen := false
			for k := 0; k < steps; k++ {
				if k == steps/2 {
					o = restore(o.State(), qn.grad, nil, 0.01)
					o.Workers = 3
				}
				a1, b1 := oracle.Step(c.disable)
				a2, b2 := o.Step(c.disable)
				if math.Float64bits(a1) != math.Float64bits(a2) || b1 != b2 {
					t.Fatalf("step %d: (alpha, backtracks) = (%v, %d), oracle (%v, %d)", k, a2, b2, a1, b1)
				}
				for name, pair := range map[string][2][]float64{
					"U": {oracle.U, o.U}, "V": {oracle.V, o.V}, "GradV": {oracle.GradV, o.GradV},
				} {
					if err := sameBits(pair[0], pair[1]); err != nil {
						t.Fatalf("step %d: %s %v", k, name, err)
					}
				}
				switch c.want {
				case "backtrack":
					seen = seen || b2 > 0
				case "cap":
					seen = seen || b2 == maxBacktracks
				case "stationary":
					seen = seen || a2 == 0
				default:
					seen = true
				}
			}
			if !seen {
				t.Errorf("no step showed the %s case", c.want)
			}
			if oracle.steps != o.Steps() || oracle.backtracks != o.Backtracks() {
				t.Errorf("counters (%d, %d), oracle (%d, %d)", o.Steps(), o.Backtracks(), oracle.steps, oracle.backtracks)
			}
		})
	}
}

// sameBits reports the first coordinate where a and b differ in bits.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("[%d] = %v, oracle %v", i, b[i], a[i])
		}
	}
	return nil
}
