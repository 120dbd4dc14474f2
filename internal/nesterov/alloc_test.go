package nesterov

import "testing"

// TestStepAllocFree pins Step's documented allocation contract with an
// allocation-free quadratic objective: the optimizer itself must not
// allocate per iteration.
func TestStepAllocFree(t *testing.T) {
	grad := func(v, g []float64) {
		for i := range v {
			g[i] = v[i] - float64(i%7)
		}
	}
	v0 := make([]float64, 64)
	for i := range v0 {
		v0[i] = float64(i % 13)
	}
	o := start(v0, grad, nil, 0.01)
	o.Step(false)
	o.Step(false)
	if n := testing.AllocsPerRun(50, func() { o.Step(false) }); n != 0 {
		t.Errorf("Step allocates %v times per call, want 0", n)
	}
}
