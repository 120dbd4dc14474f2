package poisson

import (
	"math"
	"math/rand"
	"testing"
)

// manufactured builds rho for the exact solution
// psi(i,j) = cos(wu*(i+1/2)) * cos(wv*(j+1/2)).
func manufactured(m, u, v int) (rho, psi []float64) {
	rho = make([]float64, m*m)
	psi = make([]float64, m*m)
	wu := math.Pi * float64(u) / float64(m)
	wv := math.Pi * float64(v) / float64(m)
	k2 := wu*wu + wv*wv
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			p := math.Cos(wu*(float64(i)+0.5)) * math.Cos(wv*(float64(j)+0.5))
			psi[j*m+i] = p
			rho[j*m+i] = k2 * p
		}
	}
	return rho, psi
}

// mustSolver builds a float64 spectral solver or fails the test: the
// helper for the many tests whose m is a known-good power of two.
func mustSolver(tb testing.TB, m, workers int) *Solver {
	tb.Helper()
	s, err := newSpectral[float64](m, workers)
	if err != nil {
		tb.Fatalf("newSpectral(%d, %d): %v", m, workers, err)
	}
	return s
}

// planeSolver is either instantiation of the pipeline under test.
type planeSolver interface {
	Solve(rho []float64)
	Energy(rho []float64) float64
	Planes() (psi, ex, ey []float64)
}

// solver64 gives the float64 Solver Solver32's Planes accessor.
type solver64 struct{ *Solver }

func (s solver64) Planes() (psi, ex, ey []float64) { return s.Psi, s.Ex, s.Ey }

// precision is one instantiation of the pipeline with the error a test
// allows it against the analytic answer.
type precision struct {
	name string
	tol  float64
	new  func(tb testing.TB, m, workers int) planeSolver
}

// precisions returns both instantiations: the float64 Solver allowed
// tol64 and the float32 Solver32 allowed tol32. Solver32's guard is off,
// so its planes are the float32 pipeline's own: on a single cosine mode
// one field plane is zero up to rounding, the guard's plane-normalized
// error is huge, and it would hand every later solve to the float64
// reference.
func precisions(tol64, tol32 float64) []precision {
	return []precision{
		{"float64", tol64, func(tb testing.TB, m, workers int) planeSolver { return solver64{mustSolver(tb, m, workers)} }},
		{"float32", tol32, func(tb testing.TB, m, workers int) planeSolver {
			s := mustSolver32(tb, m, workers)
			s.guardEvery = 0
			return s
		}},
	}
}

func TestNewSolverRejectsBadSize(t *testing.T) {
	for _, m := range []int{0, -4, 3, 24} {
		if _, err := newSpectral[float64](m, 1); err == nil {
			t.Errorf("newSpectral(%d) = nil error, want descriptive error", m)
		}
		if _, err := NewSolver32Workers(m, 1); err == nil {
			t.Errorf("NewSolver32Workers(%d) = nil error, want descriptive error", m)
		}
	}
}

func TestManufacturedSolution(t *testing.T) {
	m := 32
	for _, p := range precisions(1e-8, 5e-6) {
		s := p.new(t, m, 0)
		worst := 0.0
		for _, uv := range [][2]int{{1, 0}, {0, 1}, {1, 1}, {3, 2}, {7, 5}, {15, 15}} {
			rho, want := manufactured(m, uv[0], uv[1])
			s.Solve(rho)
			psi, _, _ := s.Planes()
			for b := range want {
				d := math.Abs(psi[b] - want[b])
				if d > p.tol {
					t.Fatalf("%s mode %v bin %d: psi=%v want=%v", p.name, uv, b, psi[b], want[b])
				}
				worst = max(worst, d)
			}
		}
		t.Logf("%s: worst |psi - exact| = %.3g (tol %.3g)", p.name, worst, p.tol)
	}
}

func TestFieldMatchesAnalyticDerivative(t *testing.T) {
	m := 32
	u, v := 3, 2
	rho, _ := manufactured(m, u, v)
	wu := math.Pi * float64(u) / float64(m)
	wv := math.Pi * float64(v) / float64(m)
	for _, p := range precisions(1e-8, 5e-7) {
		s := p.new(t, m, 0)
		s.Solve(rho)
		_, ex, ey := s.Planes()
		worst := 0.0
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				x, y := float64(i)+0.5, float64(j)+0.5
				// psi = cos(wu x) cos(wv y); Ex = -d psi/dx = wu sin(wu x) cos(wv y).
				wantEx := wu * math.Sin(wu*x) * math.Cos(wv*y)
				wantEy := wv * math.Cos(wu*x) * math.Sin(wv*y)
				dx, dy := math.Abs(ex[j*m+i]-wantEx), math.Abs(ey[j*m+i]-wantEy)
				if dx > p.tol {
					t.Fatalf("%s Ex(%d,%d)=%v want %v", p.name, i, j, ex[j*m+i], wantEx)
				}
				if dy > p.tol {
					t.Fatalf("%s Ey(%d,%d)=%v want %v", p.name, i, j, ey[j*m+i], wantEy)
				}
				worst = max(worst, dx, dy)
			}
		}
		t.Logf("%s: worst |field - exact| = %.3g (tol %.3g)", p.name, worst, p.tol)
	}
}

func TestUniformChargeGivesZeroField(t *testing.T) {
	m := 16
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = 7.5 // pure DC: removed by the zero-frequency constraint
	}
	for _, p := range precisions(1e-10, 1e-10) {
		s := p.new(t, m, 0)
		s.Solve(rho)
		psi, ex, ey := s.Planes()
		for b := range rho {
			if math.Abs(psi[b]) > p.tol || math.Abs(ex[b]) > p.tol || math.Abs(ey[b]) > p.tol {
				t.Fatalf("%s: uniform charge produced psi=%v ex=%v ey=%v at %d",
					p.name, psi[b], ex[b], ey[b], b)
			}
		}
	}
}

func TestPsiZeroMean(t *testing.T) {
	m := 32
	rng := rand.New(rand.NewSource(3))
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = rng.Float64() * 10
	}
	for _, p := range precisions(1e-9, 1e-7) {
		s := p.new(t, m, 0)
		s.Solve(rho)
		psi, _, _ := s.Planes()
		sum := 0.0
		for _, v := range psi {
			sum += v
		}
		if math.Abs(sum/float64(m*m)) > p.tol {
			t.Errorf("%s: psi mean = %v, want 0", p.name, sum/float64(m*m))
		}
	}
}

// The electric force must point away from a concentrated charge blob:
// this is the mechanism that spreads cells apart (Sec. IV).
func TestFieldPointsAwayFromBlob(t *testing.T) {
	m := 32
	s := mustSolver(t, m, 0)
	rho := make([]float64, m*m)
	cx, cy := 16, 16
	for dj := -2; dj <= 2; dj++ {
		for di := -2; di <= 2; di++ {
			rho[(cy+dj)*m+(cx+di)] = 100
		}
	}
	s.Solve(rho)
	// Sample points on each side of the blob.
	right := s.Ex[cy*m+(cx+6)]
	left := s.Ex[cy*m+(cx-6)]
	up := s.Ey[(cy+6)*m+cx]
	down := s.Ey[(cy-6)*m+cx]
	if right <= 0 {
		t.Errorf("Ex right of blob = %v, want > 0", right)
	}
	if left >= 0 {
		t.Errorf("Ex left of blob = %v, want < 0", left)
	}
	if up <= 0 {
		t.Errorf("Ey above blob = %v, want > 0", up)
	}
	if down >= 0 {
		t.Errorf("Ey below blob = %v, want < 0", down)
	}
	// Potential peaks at the blob.
	if s.Psi[cy*m+cx] <= s.Psi[5*m+5] {
		t.Errorf("psi at blob %v not above psi far away %v", s.Psi[cy*m+cx], s.Psi[5*m+5])
	}
}

// Neumann boundary: the normal field component vanishes at the walls,
// preventing charge from being pushed outside the region. The cosine
// basis guarantees d psi/dx = 0 at x = 0 and x = m exactly; at sample
// points half a bin inside, the normal field must be small relative to
// the interior field scale.
func TestNeumannBoundaryFieldSmall(t *testing.T) {
	m := 64
	rho := make([]float64, m*m)
	// Off-center blob so boundary fields would be asymmetric if wrong.
	for dj := -2; dj <= 2; dj++ {
		for di := -2; di <= 2; di++ {
			rho[(20+dj)*m+(40+di)] = 50
		}
	}
	// The bound is the physics' (a fraction of the interior peak), the
	// same for both precisions.
	for _, p := range precisions(0.25, 0.25) {
		s := p.new(t, m, 0)
		s.Solve(rho)
		_, ex, ey := s.Planes()
		maxInterior := 0.0
		for _, v := range ex {
			if a := math.Abs(v); a > maxInterior {
				maxInterior = a
			}
		}
		// Compare the half-bin-inside boundary samples against the analytic
		// continuation at the true wall (which is exactly zero): they must be
		// an order of magnitude below the interior peak.
		for j := 0; j < m; j++ {
			if a := math.Abs(ex[j*m+0]); a > p.tol*maxInterior {
				t.Fatalf("%s: Ex near left wall row %d = %v, interior max %v", p.name, j, a, maxInterior)
			}
			if a := math.Abs(ex[j*m+m-1]); a > p.tol*maxInterior {
				t.Fatalf("%s: Ex near right wall row %d = %v, interior max %v", p.name, j, a, maxInterior)
			}
		}
		maxInterior = 0
		for _, v := range ey {
			if a := math.Abs(v); a > maxInterior {
				maxInterior = a
			}
		}
		for i := 0; i < m; i++ {
			if a := math.Abs(ey[0*m+i]); a > p.tol*maxInterior {
				t.Fatalf("%s: Ey near bottom wall col %d = %v, interior max %v", p.name, i, a, maxInterior)
			}
			if a := math.Abs(ey[(m-1)*m+i]); a > p.tol*maxInterior {
				t.Fatalf("%s: Ey near top wall col %d = %v, interior max %v", p.name, i, a, maxInterior)
			}
		}
	}
}

// Linearity: solving a + b equals solving a plus solving b.
func TestSolveLinearity(t *testing.T) {
	m := 16
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, m*m)
	b := make([]float64, m*m)
	ab := make([]float64, m*m)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		ab[i] = a[i] + b[i]
	}
	for _, p := range precisions(1e-9, 1e-5) {
		s := p.new(t, m, 0)
		s.Solve(a)
		psi, ex, _ := s.Planes()
		psiA := append([]float64(nil), psi...)
		exA := append([]float64(nil), ex...)
		s.Solve(b)
		psi, ex, _ = s.Planes()
		psiB := append([]float64(nil), psi...)
		exB := append([]float64(nil), ex...)
		s.Solve(ab)
		psi, ex, _ = s.Planes()
		for i := range ab {
			if math.Abs(psi[i]-(psiA[i]+psiB[i])) > p.tol {
				t.Fatalf("%s: psi nonlinearity at %d", p.name, i)
			}
			if math.Abs(ex[i]-(exA[i]+exB[i])) > p.tol {
				t.Fatalf("%s: ex nonlinearity at %d", p.name, i)
			}
		}
	}
}

// Energy of two separated blobs is lower than of one merged blob:
// spreading reduces N(v), the optimizer's descent direction.
func TestEnergyDecreasesWhenSpread(t *testing.T) {
	m := 32
	s := mustSolver(t, m, 0)
	merged := make([]float64, m*m)
	for dj := 0; dj < 4; dj++ {
		for di := 0; di < 4; di++ {
			merged[(14+dj)*m+(14+di)] = 10
		}
	}
	split := make([]float64, m*m)
	for dj := 0; dj < 4; dj++ {
		for di := 0; di < 4; di++ {
			split[(14+dj)*m+(6+di)] = 5
			split[(14+dj)*m+(22+di)] = 5
		}
	}
	s.Solve(merged)
	eMerged := s.Energy(merged)
	s.Solve(split)
	eSplit := s.Energy(split)
	if eSplit >= eMerged {
		t.Errorf("energy split=%v >= merged=%v", eSplit, eMerged)
	}
	if eMerged <= 0 {
		t.Errorf("merged energy = %v, want > 0", eMerged)
	}
}

// Laplacian check: numerically differentiating the reconstructed psi
// recovers -rho for a smooth band-limited charge.
func TestPoissonResidualSmoothCharge(t *testing.T) {
	m := 64
	rho := make([]float64, m*m)
	// Band-limited smooth charge: a few low-frequency cosine modes.
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			x, y := float64(i)+0.5, float64(j)+0.5
			rho[j*m+i] = 3*math.Cos(math.Pi*2*x/float64(m))*math.Cos(math.Pi*1*y/float64(m)) +
				1.5*math.Cos(math.Pi*3*x/float64(m))
		}
	}
	// The bound is the finite difference's truncation error, the same for
	// both precisions.
	for _, p := range precisions(0.02, 0.02) {
		s := p.new(t, m, 0)
		s.Solve(rho)
		psi, _, _ := s.Planes()
		// Central second differences on interior bins; spacing 1 bin. The
		// truncation error is O(h^2 * w^4) which for these low modes is small.
		for j := 2; j < m-2; j++ {
			for i := 2; i < m-2; i++ {
				lap := psi[j*m+i-1] + psi[j*m+i+1] + psi[(j-1)*m+i] + psi[(j+1)*m+i] - 4*psi[j*m+i]
				if d := math.Abs(-lap - rho[j*m+i]); d > p.tol*(1+math.Abs(rho[j*m+i])) {
					t.Fatalf("%s: residual at (%d,%d): lap=%v rho=%v", p.name, i, j, -lap, rho[j*m+i])
				}
			}
		}
	}
}

// The blocked transpose must be an exact involution for every grid
// size the solver accepts, including ones that are not multiples of
// the tile edge.
func TestTransposeRoundTrip(t *testing.T) {
	for _, m := range []int{2, 8, 16, 32, 64, 128} {
		s := mustSolver(t, m, 2)
		src := make([]float64, m*m)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		dst := make([]float64, m*m)
		back := make([]float64, m*m)
		s.transpose(src, dst)
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				if dst[i*m+j] != src[j*m+i] {
					t.Fatalf("m=%d transpose wrong at (%d,%d)", m, i, j)
				}
			}
		}
		s.transpose(dst, back)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("m=%d transpose not an involution at %d", m, i)
			}
		}
	}
}

// The sharded Energy reduction must be bitwise-identical at every
// worker count: shard boundaries are fixed, not worker-derived.
func TestEnergyWorkersBitwise(t *testing.T) {
	const m = 64
	rho := make([]float64, m*m)
	rng := rand.New(rand.NewSource(17))
	for i := range rho {
		rho[i] = rng.NormFloat64()
	}
	ref := mustSolver(t, m, 1)
	ref.Solve(rho)
	want := ref.Energy(rho)
	for _, workers := range []int{2, 3, 7, 8} {
		s := mustSolver(t, m, workers)
		s.Solve(rho)
		if got := s.Energy(rho); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: energy %v != %v", workers, got, want)
		}
	}
}

// Tiny grids exercise the pair-packed pipeline's smallest transforms
// (n=2 FFTs, single-pair rows); the manufactured modes must still be
// exact.
func TestManufacturedSolutionSmallGrids(t *testing.T) {
	for _, p := range precisions(1e-9, 1e-6) {
		for _, m := range []int{2, 4, 8} {
			s := p.new(t, m, 0)
			for _, uv := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
				rho, want := manufactured(m, uv[0], uv[1])
				s.Solve(rho)
				psi, _, _ := s.Planes()
				for b := range want {
					if d := math.Abs(psi[b] - want[b]); d > p.tol {
						t.Fatalf("%s m=%d mode %v bin %d: psi=%v want=%v", p.name, m, uv, b, psi[b], want[b])
					}
				}
			}
		}
	}
}

// A 1x1 grid has only the removed DC mode: everything is zero.
func TestSolveDegenerateGrid(t *testing.T) {
	for _, p := range precisions(0, 0) {
		s := p.new(t, 1, 0)
		s.Solve([]float64{42})
		psi, ex, ey := s.Planes()
		if psi[0] != 0 || ex[0] != 0 || ey[0] != 0 {
			t.Fatalf("%s 1x1 solve: psi=%v ex=%v ey=%v, want zeros", p.name, psi[0], ex[0], ey[0])
		}
		if e := s.Energy([]float64{42}); e != 0 {
			t.Fatalf("%s 1x1 energy = %v, want 0", p.name, e)
		}
	}
}

func benchSolve(b *testing.B, m, workers int) {
	s := mustSolver(b, m, workers)
	rho := make([]float64, m*m)
	rng := rand.New(rand.NewSource(1))
	for i := range rho {
		rho[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(rho)
	}
}

// Single-threaded solver benchmarks: the numbers the telemetry bench
// harness records (see EXPERIMENTS.md "Kernel microbenchmarks").
func BenchmarkSolve_128(b *testing.B) { benchSolve(b, 128, 1) }
func BenchmarkSolve_256(b *testing.B) { benchSolve(b, 256, 1) }
func BenchmarkSolve_512(b *testing.B) { benchSolve(b, 512, 1) }

// All-cores variant, for the parallel-scaling view.
func BenchmarkSolve_256AllCores(b *testing.B) { benchSolve(b, 256, 0) }

func BenchmarkEnergy_256(b *testing.B) {
	m := 256
	s := mustSolver(b, m, 1)
	rho := make([]float64, m*m)
	rng := rand.New(rand.NewSource(1))
	for i := range rho {
		rho[i] = rng.Float64()
	}
	s.Solve(rho)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Energy(rho)
	}
}
