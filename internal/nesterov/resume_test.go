package nesterov

import (
	"math"
	"testing"
)

// rosenGrad is a nonconvex-ish test gradient (2D Rosenbrock), enough
// structure to exercise backtracking and momentum.
func rosenGrad(v, g []float64) {
	x, y := v[0], v[1]
	g[0] = -2*(1-x) - 400*x*(y-x*x)
	g[1] = 200 * (y - x*x)
}

// TestResumeBitwiseEquivalent checks the State/Resume contract: a run
// interrupted at step k and resumed must produce a trajectory
// bitwise-identical to the uninterrupted run, including counters.
func TestResumeBitwiseEquivalent(t *testing.T) {
	v0 := []float64{-1.2, 1}
	ref := start(v0, rosenGrad, nil, 1e-3)

	const split, total = 7, 30
	other := start(v0, rosenGrad, nil, 1e-3)
	for k := 0; k < split; k++ {
		ref.Step(false)
		other.Step(false)
	}
	res := restore(other.State(), rosenGrad, nil, 1e-3)

	for k := split; k < total; k++ {
		a1, b1 := ref.Step(false)
		a2, b2 := res.Step(false)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("step %d: (alpha,bt) = (%v,%d) vs (%v,%d)", k, a1, b1, a2, b2)
		}
		for i := range ref.U {
			if math.Float64bits(ref.U[i]) != math.Float64bits(res.U[i]) ||
				math.Float64bits(ref.V[i]) != math.Float64bits(res.V[i]) {
				t.Fatalf("step %d: solutions diverged at %d: %v vs %v", k, i, ref.U[i], res.U[i])
			}
		}
	}
	if ref.Steps() != res.Steps() || ref.Backtracks() != res.Backtracks() {
		t.Fatalf("counters diverged: (%d,%d) vs (%d,%d)",
			ref.Steps(), ref.Backtracks(), res.Steps(), res.Backtracks())
	}
}

// TestStateIsDeepCopy verifies State does not alias live buffers.
func TestStateIsDeepCopy(t *testing.T) {
	o := start([]float64{1, 2}, rosenGrad, nil, 1e-3)
	s := o.State()
	u0 := s.U[0]
	o.Step(false)
	o.Step(false)
	if s.U[0] != u0 {
		t.Error("State aliases the optimizer's U buffer")
	}
}
