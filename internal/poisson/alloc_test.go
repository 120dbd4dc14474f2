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

// TestSolver32ResetMatchesFresh holds Reset to the constructor: a solver
// reserved for m = 128, used at 64 and forced onto its float64 fallback,
// then Reset to 32, solves with the bits, guard state and energy of a
// new 32 x 32 solver, at 1 and 2 workers; and a Reset to a size the
// solver has already planned allocates nothing.
func TestSolver32ResetMatchesFresh(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := &Solver32{}
		s.Reserve(128)
		if err := s.Reset(64, workers); err != nil {
			t.Fatal(err)
		}
		s.guardEvery, s.guardTol = 1, 0
		s.Solve(randCharge(64, 1))
		if !s.fellBack {
			t.Fatal("the forced guard did not fall back")
		}
		if err := s.Reset(32, workers); err != nil {
			t.Fatal(err)
		}
		fresh := mustSolver32(t, 32, workers)
		for i := range 3 {
			rho := randCharge(32, int64(2+i))
			s.Solve(rho)
			fresh.Solve(rho)
			if s.fellBack || s.solves != fresh.solves || s.lastErr != fresh.lastErr {
				t.Fatalf("workers=%d solve %d: guard (fellBack %v, %d solves, err %v), fresh (%v, %d, %v)",
					workers, i, s.fellBack, s.solves, s.lastErr, fresh.fellBack, fresh.solves, fresh.lastErr)
			}
			got, want := [3][]float64{}, [3][]float64{}
			got[0], got[1], got[2] = s.Planes()
			want[0], want[1], want[2] = fresh.Planes()
			for p := range got {
				for k := range want[p] {
					if math.Float64bits(got[p][k]) != math.Float64bits(want[p][k]) {
						t.Fatalf("workers=%d solve %d: plane %d sample %d is %v after Reset, %v fresh", workers, i, p, k, got[p][k], want[p][k])
					}
				}
			}
			if e, f := s.Energy(rho), fresh.Energy(rho); math.Float64bits(e) != math.Float64bits(f) {
				t.Fatalf("workers=%d: energy %v after Reset, %v fresh", workers, e, f)
			}
		}
		if n := testing.AllocsPerRun(5, func() { _ = s.Reset(32, workers) }); n != 0 {
			t.Errorf("workers=%d: Reset to the planned size allocates %v times, want 0", workers, n)
		}
	}
}
