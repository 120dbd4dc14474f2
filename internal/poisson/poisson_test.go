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
	s, err := NewSolverWorkers(m, workers)
	if err != nil {
		tb.Fatalf("NewSolverWorkers(%d, %d): %v", m, workers, err)
	}
	return s
}

func TestNewSolverRejectsBadSize(t *testing.T) {
	for _, m := range []int{0, -4, 3, 24} {
		if _, err := NewSolverWorkers(m, 1); err == nil {
			t.Errorf("NewSolverWorkers(%d) = nil error, want descriptive error", m)
		}
		if _, err := NewSolver32Workers(m, 1); err == nil {
			t.Errorf("NewSolver32Workers(%d) = nil error, want descriptive error", m)
		}
	}
}

func TestManufacturedSolution(t *testing.T) {
	m := 32
	s := mustSolver(t, m, 0)
	for _, uv := range [][2]int{{1, 0}, {0, 1}, {1, 1}, {3, 2}, {7, 5}, {15, 15}} {
		rho, want := manufactured(m, uv[0], uv[1])
		s.Solve(rho)
		for b := range want {
			if d := math.Abs(s.Psi[b] - want[b]); d > 1e-8 {
				t.Fatalf("mode %v bin %d: psi=%v want=%v", uv, b, s.Psi[b], want[b])
			}
		}
	}
}

func TestFieldMatchesAnalyticDerivative(t *testing.T) {
	m := 32
	s := mustSolver(t, m, 0)
	u, v := 3, 2
	rho, _ := manufactured(m, u, v)
	s.Solve(rho)
	wu := math.Pi * float64(u) / float64(m)
	wv := math.Pi * float64(v) / float64(m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			x, y := float64(i)+0.5, float64(j)+0.5
			// psi = cos(wu x) cos(wv y); Ex = -d psi/dx = wu sin(wu x) cos(wv y).
			wantEx := wu * math.Sin(wu*x) * math.Cos(wv*y)
			wantEy := wv * math.Cos(wu*x) * math.Sin(wv*y)
			if math.Abs(s.Ex[j*m+i]-wantEx) > 1e-8 {
				t.Fatalf("Ex(%d,%d)=%v want %v", i, j, s.Ex[j*m+i], wantEx)
			}
			if math.Abs(s.Ey[j*m+i]-wantEy) > 1e-8 {
				t.Fatalf("Ey(%d,%d)=%v want %v", i, j, s.Ey[j*m+i], wantEy)
			}
		}
	}
}

func TestUniformChargeGivesZeroField(t *testing.T) {
	m := 16
	s := mustSolver(t, m, 0)
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = 7.5 // pure DC: removed by the zero-frequency constraint
	}
	s.Solve(rho)
	for b := range rho {
		if math.Abs(s.Psi[b]) > 1e-10 || math.Abs(s.Ex[b]) > 1e-10 || math.Abs(s.Ey[b]) > 1e-10 {
			t.Fatalf("uniform charge produced psi=%v ex=%v ey=%v at %d",
				s.Psi[b], s.Ex[b], s.Ey[b], b)
		}
	}
}

func TestPsiZeroMean(t *testing.T) {
	m := 32
	s := mustSolver(t, m, 0)
	rng := rand.New(rand.NewSource(3))
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = rng.Float64() * 10
	}
	s.Solve(rho)
	sum := 0.0
	for _, p := range s.Psi {
		sum += p
	}
	if math.Abs(sum/float64(m*m)) > 1e-9 {
		t.Errorf("psi mean = %v, want 0", sum/float64(m*m))
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
	s := mustSolver(t, m, 0)
	rho := make([]float64, m*m)
	// Off-center blob so boundary fields would be asymmetric if wrong.
	for dj := -2; dj <= 2; dj++ {
		for di := -2; di <= 2; di++ {
			rho[(20+dj)*m+(40+di)] = 50
		}
	}
	s.Solve(rho)
	maxInterior := 0.0
	for _, v := range s.Ex {
		if a := math.Abs(v); a > maxInterior {
			maxInterior = a
		}
	}
	// Compare the half-bin-inside boundary samples against the analytic
	// continuation at the true wall (which is exactly zero): they must be
	// an order of magnitude below the interior peak.
	for j := 0; j < m; j++ {
		if a := math.Abs(s.Ex[j*m+0]); a > 0.25*maxInterior {
			t.Fatalf("Ex near left wall row %d = %v, interior max %v", j, a, maxInterior)
		}
		if a := math.Abs(s.Ex[j*m+m-1]); a > 0.25*maxInterior {
			t.Fatalf("Ex near right wall row %d = %v, interior max %v", j, a, maxInterior)
		}
	}
	maxInterior = 0
	for _, v := range s.Ey {
		if a := math.Abs(v); a > maxInterior {
			maxInterior = a
		}
	}
	for i := 0; i < m; i++ {
		if a := math.Abs(s.Ey[0*m+i]); a > 0.25*maxInterior {
			t.Fatalf("Ey near bottom wall col %d = %v, interior max %v", i, a, maxInterior)
		}
		if a := math.Abs(s.Ey[(m-1)*m+i]); a > 0.25*maxInterior {
			t.Fatalf("Ey near top wall col %d = %v, interior max %v", i, a, maxInterior)
		}
	}
}

// Linearity: solving a + b equals solving a plus solving b.
func TestSolveLinearity(t *testing.T) {
	m := 16
	s := mustSolver(t, m, 0)
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, m*m)
	b := make([]float64, m*m)
	ab := make([]float64, m*m)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		ab[i] = a[i] + b[i]
	}
	s.Solve(a)
	psiA := append([]float64(nil), s.Psi...)
	exA := append([]float64(nil), s.Ex...)
	s.Solve(b)
	psiB := append([]float64(nil), s.Psi...)
	exB := append([]float64(nil), s.Ex...)
	s.Solve(ab)
	for i := range ab {
		if math.Abs(s.Psi[i]-(psiA[i]+psiB[i])) > 1e-9 {
			t.Fatalf("psi nonlinearity at %d", i)
		}
		if math.Abs(s.Ex[i]-(exA[i]+exB[i])) > 1e-9 {
			t.Fatalf("ex nonlinearity at %d", i)
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
	s := mustSolver(t, m, 0)
	rho := make([]float64, m*m)
	// Band-limited smooth charge: a few low-frequency cosine modes.
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			x, y := float64(i)+0.5, float64(j)+0.5
			rho[j*m+i] = 3*math.Cos(math.Pi*2*x/float64(m))*math.Cos(math.Pi*1*y/float64(m)) +
				1.5*math.Cos(math.Pi*3*x/float64(m))
		}
	}
	s.Solve(rho)
	// Central second differences on interior bins; spacing 1 bin. The
	// truncation error is O(h^2 * w^4) which for these low modes is small.
	for j := 2; j < m-2; j++ {
		for i := 2; i < m-2; i++ {
			lap := s.Psi[j*m+i-1] + s.Psi[j*m+i+1] + s.Psi[(j-1)*m+i] + s.Psi[(j+1)*m+i] - 4*s.Psi[j*m+i]
			if d := math.Abs(-lap - rho[j*m+i]); d > 0.02*(1+math.Abs(rho[j*m+i])) {
				t.Fatalf("residual at (%d,%d): lap=%v rho=%v", i, j, -lap, rho[j*m+i])
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
	for _, m := range []int{2, 4, 8} {
		s := mustSolver(t, m, 0)
		for _, uv := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
			rho, want := manufactured(m, uv[0], uv[1])
			s.Solve(rho)
			for b := range want {
				if d := math.Abs(s.Psi[b] - want[b]); d > 1e-9 {
					t.Fatalf("m=%d mode %v bin %d: psi=%v want=%v", m, uv, b, s.Psi[b], want[b])
				}
			}
		}
	}
}

// A 1x1 grid has only the removed DC mode: everything is zero.
func TestSolveDegenerateGrid(t *testing.T) {
	s := mustSolver(t, 1, 0)
	s.Solve([]float64{42})
	if s.Psi[0] != 0 || s.Ex[0] != 0 || s.Ey[0] != 0 {
		t.Fatalf("1x1 solve: psi=%v ex=%v ey=%v, want zeros", s.Psi[0], s.Ex[0], s.Ey[0])
	}
	if e := s.Energy([]float64{42}); e != 0 {
		t.Fatalf("1x1 energy = %v, want 0", e)
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
