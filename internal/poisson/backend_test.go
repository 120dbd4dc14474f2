package poisson

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mustSolver32 builds a float32 solver or fails the test.
func mustSolver32(tb testing.TB, m, workers int) *Solver32 {
	tb.Helper()
	s, err := NewSolver32Workers(m, workers)
	if err != nil {
		tb.Fatalf("NewSolver32Workers(%d, %d): %v", m, workers, err)
	}
	return s
}

// randCharge is a white-noise charge plane: the hardest case for the
// float32 pipeline (full spectral content, heavy cancellation).
func randCharge(m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = rng.Float64() * 10
	}
	return rho
}

// smoothCharge is a low-frequency charge plane plus a broad Gaussian
// blob: representative of real bin densities.
func smoothCharge(m int) []float64 {
	rho := make([]float64, m*m)
	fm := float64(m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			x, y := (float64(i)+0.5)/fm, (float64(j)+0.5)/fm
			g := math.Exp(-((x-0.4)*(x-0.4) + (y-0.6)*(y-0.6)) / 0.02)
			rho[j*m+i] = 3*math.Cos(math.Pi*2*x)*math.Cos(math.Pi*y) +
				1.5*math.Cos(math.Pi*3*x) + 5*g
		}
	}
	return rho
}

// spectral32Tol is the per-size error budget of the float32 pipeline
// against the float64 reference: a few float32 ulps per transform
// stage, so it grows slowly (log m) with the grid.
func spectral32Tol(m int) float64 { return 2e-6 * (math.Log2(float64(m)) + 2) }

// TestSpectral32FieldsMatchReference pins the float32 solver against
// the float64 reference across the size ladder, on white-noise charge
// (worst case for precision).
func TestSpectral32FieldsMatchReference(t *testing.T) {
	for _, m := range []int{16, 32, 64, 128, 256, 512} {
		ref := mustSolver(t, m, 1)
		s := mustSolver32(t, m, 1)
		rho := randCharge(m, int64(m))
		ref.Solve(rho)
		s.Solve(rho)
		psi, ex, ey := s.Planes()
		errs := []float64{
			maxRelError(psi, ref.Psi),
			maxRelError(ex, ref.Ex),
			maxRelError(ey, ref.Ey),
		}
		tol := spectral32Tol(m)
		t.Logf("m=%d spectral32 rel err psi=%.3g ex=%.3g ey=%.3g (tol %.3g)",
			m, errs[0], errs[1], errs[2], tol)
		for i, e := range errs {
			if e > tol {
				t.Errorf("m=%d plane %d: rel err %g > %g", m, i, e, tol)
			}
		}
		// Energy agrees to the same relative order.
		eRef := ref.Energy(rho)
		eGot := s.Energy(rho)
		if d := math.Abs(eGot-eRef) / math.Abs(eRef); d > tol {
			t.Errorf("m=%d energy rel err %g > %g", m, d, tol)
		}
	}
}

// TestBackendsBitwiseAcrossWorkers pins the determinism contract of
// Solver32 and of the float64 Solver its guard compares against:
// identical planes and energy at workers 1, 2 and 7.
func TestBackendsBitwiseAcrossWorkers(t *testing.T) {
	const m = 128
	rho := randCharge(m, 7)
	// Each solve builds a solver at the worker count, solves rho and
	// returns its planes and energy.
	for _, c := range []struct {
		name  string
		solve func(workers int) (psi, ex, ey []float64, e float64)
	}{
		{"spectral32", func(workers int) ([]float64, []float64, []float64, float64) {
			s := mustSolver32(t, m, workers)
			s.Solve(rho)
			psi, ex, ey := s.Planes()
			return psi, ex, ey, s.Energy(rho)
		}},
		{"float64", func(workers int) ([]float64, []float64, []float64, float64) {
			s := mustSolver(t, m, workers)
			s.Solve(rho)
			return s.Psi, s.Ex, s.Ey, s.Energy(rho)
		}},
	} {
		refPsi, refEx, refEy, refE := c.solve(1)
		for _, workers := range []int{2, 7} {
			psi, ex, ey, e := c.solve(workers)
			for i := range psi {
				if psi[i] != refPsi[i] || ex[i] != refEx[i] || ey[i] != refEy[i] {
					t.Fatalf("%s workers=%d: plane mismatch at %d", c.name, workers, i)
				}
			}
			if math.Float64bits(e) != math.Float64bits(refE) {
				t.Fatalf("%s workers=%d: energy %v != %v", c.name, workers, e, refE)
			}
		}
	}
}

// TestBackendsRepeatSolveBitwise pins solve-to-solve reproducibility:
// re-solving the same charge yields bit-identical planes.
func TestBackendsRepeatSolveBitwise(t *testing.T) {
	const m = 64
	s := mustSolver32(t, m, 2)
	rho := randCharge(m, 21)
	s.Solve(rho)
	psi, _, _ := s.Planes()
	first := append([]float64(nil), psi...)
	s.Solve(smoothCharge(m)) // disturb internal state
	s.Solve(rho)
	psi, _, _ = s.Planes()
	for i := range psi {
		if psi[i] != first[i] {
			t.Fatalf("repeat solve differs at %d", i)
		}
	}
}

// TestGuardFallback forces the precision guard to trip and checks the
// permanent float64 fallback: the planes become the reference's and
// later solves keep using it.
func TestGuardFallback(t *testing.T) {
	const m = 64
	s := mustSolver32(t, m, 1)
	s.guardEvery = 1
	s.guardTol = 0 // any nonzero float32 rounding error trips the guard
	rho := randCharge(m, 5)
	s.Solve(rho)
	if !s.fellBack {
		t.Fatal("guard with zero tolerance did not trip")
	}
	if s.lastErr <= 0 {
		t.Fatalf("guard error = %v, want > 0", s.lastErr)
	}
	ref := mustSolver(t, m, 1)
	ref.Solve(rho)
	psi, ex, ey := s.Planes()
	for i := range psi {
		if psi[i] != ref.Psi[i] || ex[i] != ref.Ex[i] || ey[i] != ref.Ey[i] {
			t.Fatalf("fallback planes differ from reference at %d", i)
		}
	}
	if e, want := s.Energy(rho), ref.Energy(rho); math.Float64bits(e) != math.Float64bits(want) {
		t.Fatalf("fallback energy %v != %v", e, want)
	}
	// Subsequent solves stay on the reference path.
	rho2 := smoothCharge(m)
	s.Solve(rho2)
	ref.Solve(rho2)
	psi, _, _ = s.Planes()
	for i := range psi {
		if psi[i] != ref.Psi[i] {
			t.Fatalf("post-fallback solve differs from reference at %d", i)
		}
	}
}

// TestGuardStaysQuietOnNormalCharge: the default tolerance must not
// trip on ordinary charge planes (the fallback is for pathologies, not
// the steady state).
func TestGuardStaysQuietOnNormalCharge(t *testing.T) {
	const m = 128
	s := mustSolver32(t, m, 1)
	s.guardEvery = 1 // check every solve
	for i := 0; i < 5; i++ {
		s.Solve(randCharge(m, int64(i)))
		if s.fellBack {
			t.Fatalf("guard tripped on solve %d with err %v", i, s.lastErr)
		}
	}
}

// TestBackendNames pins the names the benchmark-held entry points take:
// "" and spectral32 build the float32 solver, and every other name —
// the removed float64 and multigrid backends included — is refused with
// an error naming it.
func TestBackendNames(t *testing.T) {
	for _, kind := range []string{"", KindSpectral32} {
		if err := ValidateKind(kind); err != nil {
			t.Errorf("ValidateKind(%q) = %v", kind, err)
		}
		if s, err := NewBackend(kind, 16, 1); err != nil || s.m != 16 {
			t.Errorf("NewBackend(%q, 16) = %v, %v", kind, s, err)
		}
	}
	for _, kind := range []string{"spectral", "multigrid", "bogus"} {
		if err := ValidateKind(kind); err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("ValidateKind(%q) = %v, want an error naming it", kind, err)
		}
		if _, err := NewBackend(kind, 16, 1); err == nil {
			t.Errorf("NewBackend(%q) succeeded", kind)
		}
	}
}

// TestBackendsDegenerateGrid: the 1x1 grid has only the removed DC mode.
func TestBackendsDegenerateGrid(t *testing.T) {
	s := mustSolver32(t, 1, 1)
	s.Solve([]float64{42})
	psi, ex, ey := s.Planes()
	if psi[0] != 0 || ex[0] != 0 || ey[0] != 0 {
		t.Fatalf("1x1: psi=%v ex=%v ey=%v, want zeros", psi[0], ex[0], ey[0])
	}
	if e := s.Energy([]float64{42}); e != 0 {
		t.Fatalf("1x1 energy = %v, want 0", e)
	}
}

func benchSolve32(b *testing.B, m, workers int) {
	s := mustSolver32(b, m, workers)
	rho := randCharge(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(rho)
	}
}

// Float32 solve benchmarks at the committed microbench sizes (the
// float64 rows live in poisson_test.go as BenchmarkSolve_*).
func BenchmarkSolve32_128(b *testing.B)         { benchSolve32(b, 128, 1) }
func BenchmarkSolve32_256(b *testing.B)         { benchSolve32(b, 256, 1) }
func BenchmarkSolve32_512(b *testing.B)         { benchSolve32(b, 512, 1) }
func BenchmarkSolve32_256AllCores(b *testing.B) { benchSolve32(b, 256, 0) }
