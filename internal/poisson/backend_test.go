package poisson

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mustBackend builds the named backend or fails the test.
func mustBackend(tb testing.TB, kind string, m, workers int) Backend {
	tb.Helper()
	b, err := NewBackend(kind, m, workers)
	if err != nil {
		tb.Fatalf("NewBackend(%q, %d, %d): %v", kind, m, workers, err)
	}
	return b
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

// TestSpectral32FieldsMatchReference pins the float32 spectral backend
// against the float64 reference across the size ladder, on white-noise
// charge (worst case for precision).
func TestSpectral32FieldsMatchReference(t *testing.T) {
	for _, m := range []int{16, 32, 64, 128, 256, 512} {
		ref := mustSolver(t, m, 1)
		s := mustBackend(t, KindSpectral32, m, 1)
		rho := randCharge(m, int64(m))
		ref.Solve(rho)
		s.Solve(rho)
		psi, ex, ey := s.Planes()
		errs := []float64{
			MaxRelError(psi, ref.Psi),
			MaxRelError(ex, ref.Ex),
			MaxRelError(ey, ref.Ey),
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

// TestBackendsBitwiseAcrossWorkers pins the determinism contract for
// every backend: identical planes and energy at workers 1, 2 and 7.
func TestBackendsBitwiseAcrossWorkers(t *testing.T) {
	const m = 128
	for _, kind := range Kinds() {
		rho := randCharge(m, 7)
		ref := mustBackend(t, kind, m, 1)
		ref.Solve(rho)
		refPsi, refEx, refEy := ref.Planes()
		refE := ref.Energy(rho)
		for _, workers := range []int{2, 7} {
			b := mustBackend(t, kind, m, workers)
			b.Solve(rho)
			psi, ex, ey := b.Planes()
			for i := range psi {
				if psi[i] != refPsi[i] || ex[i] != refEx[i] || ey[i] != refEy[i] {
					t.Fatalf("%s workers=%d: plane mismatch at %d", kind, workers, i)
				}
			}
			if e := b.Energy(rho); math.Float64bits(e) != math.Float64bits(refE) {
				t.Fatalf("%s workers=%d: energy %v != %v", kind, workers, e, refE)
			}
		}
	}
}

// TestBackendsRepeatSolveBitwise pins solve-to-solve reproducibility:
// re-solving the same charge yields bit-identical planes.
func TestBackendsRepeatSolveBitwise(t *testing.T) {
	const m = 64
	for _, kind := range Kinds() {
		b := mustBackend(t, kind, m, 2)
		rho := randCharge(m, 21)
		other := smoothCharge(m)
		b.Solve(rho)
		psi, _, _ := b.Planes()
		first := append([]float64(nil), psi...)
		b.Solve(other) // disturb internal state
		b.Solve(rho)
		psi, _, _ = b.Planes()
		for i := range psi {
			if psi[i] != first[i] {
				t.Fatalf("%s: repeat solve differs at %d", kind, i)
			}
		}
	}
}

// TestGuardFallback forces the precision guard to trip and checks the
// permanent float64 fallback: the planes become the reference's and
// later solves keep using it.
func TestGuardFallback(t *testing.T) {
	const m = 64
	s, err := NewSolver32Workers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.GuardEvery = 1
	s.GuardTol = 0 // any nonzero float32 rounding error trips the guard
	rho := randCharge(m, 5)
	s.Solve(rho)
	if !s.FellBack() {
		t.Fatal("guard with zero tolerance did not trip")
	}
	if s.LastGuardErr() <= 0 {
		t.Fatalf("guard error = %v, want > 0", s.LastGuardErr())
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
	s, err := NewSolver32Workers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.GuardEvery = 1 // check every solve
	for i := 0; i < 5; i++ {
		s.Solve(randCharge(m, int64(i)))
		if s.FellBack() {
			t.Fatalf("guard tripped on solve %d with err %v", i, s.LastGuardErr())
		}
	}
}

// TestBackendNames pins Name() round-tripping through NewBackend, which
// the checkpoint backend-mismatch rejection depends on.
func TestBackendNames(t *testing.T) {
	for _, kind := range Kinds() {
		b := mustBackend(t, kind, 16, 1)
		if b.Name() != kind {
			t.Errorf("NewBackend(%q).Name() = %q", kind, b.Name())
		}
		if b.M() != 16 {
			t.Errorf("%s: M() = %d, want 16", kind, b.M())
		}
	}
	if NormalizeKind("") != KindSpectral {
		t.Error("NormalizeKind(\"\") != spectral")
	}
	if _, err := NewBackend("bogus", 16, 1); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown-kind error %v does not name the kind", err)
	}
}

// TestBackendsDegenerateGrid: the 1x1 grid has only the removed DC mode.
func TestBackendsDegenerateGrid(t *testing.T) {
	for _, kind := range Kinds() {
		b := mustBackend(t, kind, 1, 1)
		b.Solve([]float64{42})
		psi, ex, ey := b.Planes()
		if psi[0] != 0 || ex[0] != 0 || ey[0] != 0 {
			t.Fatalf("%s 1x1: psi=%v ex=%v ey=%v, want zeros", kind, psi[0], ex[0], ey[0])
		}
	}
}

func benchBackend(b *testing.B, kind string, m, workers int) {
	s := mustBackend(b, kind, m, workers)
	rho := randCharge(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(rho)
	}
}

// Per-backend solve benchmarks at the committed microbench sizes (the
// float64 rows live in poisson_test.go as BenchmarkSolve_*).
func BenchmarkSolve32_128(b *testing.B)         { benchBackend(b, KindSpectral32, 128, 1) }
func BenchmarkSolve32_256(b *testing.B)         { benchBackend(b, KindSpectral32, 256, 1) }
func BenchmarkSolve32_512(b *testing.B)         { benchBackend(b, KindSpectral32, 512, 1) }
func BenchmarkSolve32_256AllCores(b *testing.B) { benchBackend(b, KindSpectral32, 256, 0) }
