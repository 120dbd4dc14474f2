package poisson

import (
	"math"
	"testing"
)

// TestSolveEnergyAllocFree pins the serial allocation contract: with a
// single worker, repeated Solve and Energy calls reuse the persistent
// task closures and whole-plane scratch and allocate nothing.
func TestSolveEnergyAllocFree(t *testing.T) {
	const m = 64
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = math.Sin(float64(5 * i))
	}
	for _, p := range precisions(0, 0) {
		s := p.new(t, m, 1)
		s.Solve(rho)
		s.Energy(rho)
		if n := testing.AllocsPerRun(10, func() { s.Solve(rho) }); n != 0 {
			t.Errorf("%s: Solve allocates %v times per call, want 0", p.name, n)
		}
		if n := testing.AllocsPerRun(10, func() { s.Energy(rho) }); n != 0 {
			t.Errorf("%s: Energy allocates %v times per call, want 0", p.name, n)
		}
	}
}
