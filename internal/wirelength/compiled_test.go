package wirelength

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCompiledBackedEquivalence is the property test for the tentpole:
// across random designs, both smoothing kinds and worker counts
// {1, 2, 7}, a model over a caller-owned compiled view (the engine's
// configuration, positions written only through Compiled.SetPositions)
// produces cost and gradient that agree with the pointer-based serial
// reference to rounding and are bit-for-bit the same at every worker
// count, and the view's HPWL matches Design.HPWL.
func TestCompiledBackedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%60)
		d, idx := randomDesign(n, seed)
		cv := d.Compile()
		rng := rand.New(rand.NewSource(seed ^ 0xfade))
		v := make([]float64, 2*len(idx))
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		// Engine write path: the view moves, then (for the serial
		// reference, which reads the structs) the design follows.
		cv.SetPositions(idx, v)
		d.SetPositions(idx, v)
		if math.Float64bits(cv.HPWL()) != math.Float64bits(d.HPWL()) {
			t.Logf("seed %d: compiled HPWL diverged", seed)
			return false
		}
		for _, kind := range []Kind{WA, LSE} {
			m := NewCompiled(cv, idx, 1.7)
			m.Kind = kind
			refGrad := make([]float64, 2*len(idx))
			refCost := serialReference(m, refGrad)
			m.Workers = 1
			grad1 := make([]float64, 2*len(idx))
			cost1 := m.CostAndGradient(grad1)
			if diff := diffFromReference(cost1, refCost, grad1, refGrad, 0); diff != "" {
				t.Logf("seed %d kind %d workers 1 against the reference: %s", seed, kind, diff)
				return false
			}
			grad := make([]float64, 2*len(idx))
			for _, workers := range []int{2, 7} {
				m.Workers = workers
				cost := m.CostAndGradient(grad)
				if math.Float64bits(cost) != math.Float64bits(cost1) {
					t.Logf("seed %d kind %d workers %d: cost is not workers-1's bits", seed, kind, workers)
					return false
				}
				if diff := sameBits(grad, grad1); diff != "" {
					t.Logf("seed %d kind %d workers %d: grad%s (workers-1)", seed, kind, workers, diff)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCostAndGradientAllocFree pins the allocation contract of the
// fused kernel: at Workers=1, repeated evaluations allocate nothing.
func TestCostAndGradientAllocFree(t *testing.T) {
	d, idx := randomDesign(300, 3)
	grad := make([]float64, 2*len(idx))
	m := NewCompiled(d.Compile(), idx, 1.0)
	m.Workers = 1
	m.CostAndGradient(grad) // warm up scratch
	if n := testing.AllocsPerRun(50, func() { m.CostAndGradient(grad) }); n != 0 {
		t.Errorf("CostAndGradient allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.Cost() }); n != 0 {
		t.Errorf("Cost allocates %v times per call", n)
	}
}

// TestFusedMatchesUnfusedAxis holds the fused per-net evaluation to the
// retained reference kernels axisWA/axisLSE, which recompute every
// exponential with math.Exp and divide where the fused kernels multiply
// by a reciprocal: agreement to rounding (refTol), not bit for bit.
func TestFusedMatchesUnfusedAxis(t *testing.T) {
	d, idx := randomDesign(120, 9)
	for _, kind := range []Kind{WA, LSE} {
		m := NewCompiled(d.Compile(), idx, 0.9)
		m.Kind = kind
		grad := make([]float64, 2*len(idx))
		got := m.CostAndGradient(grad)
		refGrad := make([]float64, 2*len(idx))
		want := serialReference(m, refGrad)
		if diff := diffFromReference(got, want, grad, refGrad, 0); diff != "" {
			t.Fatalf("kind %d: fused against unfused: %s", kind, diff)
		}
	}
}
