package density

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/synth"
)

// serialRefresh reproduces the seed's single-goroutine Refresh: the
// per-cell AddMovable/AddFiller loop followed by a serial Poisson solve.
func serialRefresh(md *Model, idx []int) {
	md.Grid.ClearMovable()
	for _, ci := range idx {
		c := &md.cv.Design().Cells[ci]
		if c.Kind == netlist.Filler {
			md.Grid.AddFiller(c.X, c.Y, c.W, c.H)
		} else {
			md.Grid.AddMovable(c.X, c.Y, c.W, c.H)
		}
	}
	md.Grid.Charge(md.rho)
	for b := range md.rho {
		md.rho[b] *= md.binAreaInv
	}
	md.Solver.Solve(md.rho)
	md.energy = md.Solver.Energy(md.rho)
	_, md.ex, md.ey = md.Solver.Planes()
}

// mustPoissonSolver builds a float64 spectral solver or fails the test.
func mustPoissonSolver(tb testing.TB, m, workers int) *poisson.Solver {
	tb.Helper()
	s, err := poisson.NewSolverWorkers(m, workers)
	if err != nil {
		tb.Fatalf("NewSolverWorkers(m=%d, workers=%d): %v", m, workers, err)
	}
	return s
}

// serialGradient reproduces the seed's single-goroutine Gradient loop.
func serialGradient(md *Model, idx []int, grad []float64) {
	n := len(idx)
	g := md.Grid
	for k, ci := range idx {
		fx, fy := forceOn(md, &md.cv.Design().Cells[ci])
		grad[k] = -2 * fx / g.BinW
		grad[k+n] = -2 * fy / g.BinH
	}
}

// TestRefreshGradientParallelEquivalence asserts bitwise-identical
// charge, energy, overflow and gradient for Workers in {1, 2, 7,
// NumCPU} against the seed serial implementation.
func TestRefreshGradientParallelEquivalence(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "dens-par", NumCells: 1200, NumMovableMacros: 4})
	idx := d.Movable()
	const m = 64 // >= 64 so the Poisson pool actually fans out

	ref := mustModel(t, d, m, 1)
	serialRefresh(ref, idx)
	refGrad := make([]float64, 2*len(idx))
	serialGradient(ref, idx, refGrad)

	counts := []int{1, 2, 7, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		counts = append(counts, 4)
	}
	grad := make([]float64, 2*len(idx))
	for _, workers := range counts {
		md := mustModel(t, d, m, workers)
		md.Refresh(idx)
		if math.Float64bits(md.Energy()) != math.Float64bits(ref.Energy()) {
			t.Fatalf("workers=%d: energy %v != serial %v", workers, md.Energy(), ref.Energy())
		}
		if math.Float64bits(md.Overflow(1)) != math.Float64bits(ref.Overflow(1)) {
			t.Fatalf("workers=%d: overflow differs", workers)
		}
		for b := range md.rho {
			if math.Float64bits(md.rho[b]) != math.Float64bits(ref.rho[b]) {
				t.Fatalf("workers=%d: rho[%d] = %v, serial %v", workers, b, md.rho[b], ref.rho[b])
			}
		}
		md.Gradient(idx, grad)
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
				t.Fatalf("workers=%d: grad[%d] = %v, serial %v", workers, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestGradientFiniteDifferenceParallel verifies the sharded gradient
// against central differences of the energy; under -race it exercises
// the rasterize/solve/force pipeline's write ownership.
func TestGradientFiniteDifferenceParallel(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "dens-fd", NumCells: 120})
	idx := d.Movable()
	md := mustModel(t, d, 64, 4)
	md.Refresh(idx)
	n := len(idx)
	grad := make([]float64, 2*n)
	md.Gradient(idx, grad)

	v := d.Positions(idx)
	h := 1e-4 * md.Grid.BinW
	for _, k := range []int{0, n / 2, n - 1, n + 1, 2*n - 1} {
		orig := v[k]
		v[k] = orig + h
		d.SetPositions(idx, v)
		syncRefresh(md, idx)
		up := md.Energy()
		v[k] = orig - h
		d.SetPositions(idx, v)
		syncRefresh(md, idx)
		dn := md.Energy()
		v[k] = orig
		d.SetPositions(idx, v)
		syncRefresh(md, idx)
		fd := (up - dn) / (2 * h)
		// The analytic gradient differentiates the field with footprints
		// frozen; FD re-rasterizes, so agreement is approximate.
		scale := math.Max(1, math.Abs(fd))
		if diff := math.Abs(fd - grad[k]); diff > 0.2*scale {
			t.Errorf("grad[%d] = %v, finite difference %v", k, grad[k], fd)
		}
	}
}

// TestPoissonWorkersEquivalence asserts the spectral solve is
// bitwise-identical across worker counts.
func TestPoissonWorkersEquivalence(t *testing.T) {
	const m = 64
	rho := make([]float64, m*m)
	for i := range rho {
		rho[i] = math.Sin(float64(3 * i)) // deterministic, zero-ish mean
	}
	ref := mustPoissonSolver(t, m, 1)
	ref.Solve(append([]float64(nil), rho...))
	for _, workers := range []int{2, 7, runtime.NumCPU() + 2} {
		s := mustPoissonSolver(t, m, workers)
		s.Solve(append([]float64(nil), rho...))
		for b := range ref.Psi {
			if math.Float64bits(s.Psi[b]) != math.Float64bits(ref.Psi[b]) ||
				math.Float64bits(s.Ex[b]) != math.Float64bits(ref.Ex[b]) ||
				math.Float64bits(s.Ey[b]) != math.Float64bits(ref.Ey[b]) {
				t.Fatalf("workers=%d: plane mismatch at bin %d", workers, b)
			}
		}
	}
}

// BenchmarkDensityGradient measures one Refresh+Gradient pass (the
// eDensity rasterize/solve/force kernel) on a >=10K-cell synthetic
// design across worker counts (acceptance: >=2x at 4+ cores vs
// workers-1 on multi-core hardware).
func BenchmarkDensityGradient(b *testing.B) {
	d := synth.Generate(synth.Spec{Name: "dens-bench", NumCells: 12000, NumMovableMacros: 8})
	idx := d.Movable()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			md := mustModel(b, d, 128, workers)
			grad := make([]float64, 2*len(idx))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				md.Refresh(idx)
				md.Gradient(idx, grad)
			}
		})
	}
}
