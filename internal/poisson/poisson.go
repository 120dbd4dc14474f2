// Package poisson solves the well-defined Poisson equation of Eq. (6)
//
//	div grad psi(x, y) = -rho(x, y)
//	n . grad psi = 0 on the boundary (Neumann)
//	integral of rho = integral of psi = 0
//
// on an M x M grid by spectral methods, exactly as FFTPL/ePlace: the
// charge is expanded in the cosine basis cos(w_u x) cos(w_v y),
// w_u = pi*u/M (which satisfies the Neumann condition term by term), the
// potential coefficients are a_{uv}/(w_u^2 + w_v^2) with the (0,0) mode
// removed, and the field components come from differentiating the basis,
// turning one cosine factor into a sine.
//
// Everything runs in O(M^2 log M) via the packed real transforms in
// internal/fft, organized as a cache-blocked 2D pipeline: every 1-D
// pass runs on contiguous rows (column passes go through an explicit
// blocked transpose instead of stride-M gather/scatter), two real rows
// share each complex FFT (fft.Real's *Pair methods), and the three
// inverse planes fuse where their transform kinds coincide — the
// Psi/Ex y-pass and the Psi/Ey x-pass each pair two planes into one
// FFT. All passes fan out over the shared internal/parallel worker
// pool (one thread-confined fft.Real workspace per worker). Tasks are
// fixed row pairs and transpose blocks whose boundaries do not depend
// on the worker count, and each task writes a disjoint slice of its
// output plane, so results are bitwise-identical for every worker
// count.
//
// Grid coordinates: sample (i, j) is the bin center (i+1/2, j+1/2) in
// units of bins. Ex is minus d(psi)/dx, the electric field that pushes
// positive charge away from density peaks; Ey likewise.
package poisson

import (
	"fmt"
	"math"

	"eplace/internal/fft"
	"eplace/internal/parallel"
)

// energyShards is the fixed number of partial sums in the Energy
// reduction. It is independent of the worker count so the summation
// order — shard-local left-to-right folds combined in shard order — is
// identical for every Workers setting.
const energyShards = 64

// tblk is the transpose tile edge: a 32x32 float64 tile is 8 KiB, so
// one source and one destination tile stay L1-resident.
const tblk = 32

// Solver holds workspace for repeated solves on one grid size. A Solver
// is not safe for concurrent method calls (Solve parallelizes
// internally and Energy reuses the shared partial-sum buffer); use one
// Solver per goroutine.
type Solver struct {
	m int
	// One packed-transform workspace per worker. Each worker's fft.Real
	// owns its reorder/twiddle tables and complex scratch; the solver
	// itself owns the whole-plane scratch below, written in disjoint
	// row/tile slices by the workers.
	trs []*fft.Real
	// wu[u] = pi*u/m.
	wu []float64
	// Coefficient planes in TRANSPOSED layout [u*m + v] (frequency u
	// outer, v inner) so the y-direction passes run on contiguous rows.
	// After the inverse y-pass they hold the half-reconstructed planes
	// G[u*m + j] in place.
	buv  []float64 // potential coefficients auv/(wu^2+wv^2)
	cxuv []float64 // field-x coefficients buv*wu
	cyuv []float64 // field-y coefficients buv*wv
	// Whole-plane scratch: ta/tb carry the forward passes, and all
	// three hold the re-transposed G planes for the inverse x-pass.
	ta, tb, tc []float64
	// epart holds the fixed-order Energy partial sums; eShards is the
	// effective shard count (fixed at construction).
	epart   [energyShards]float64
	eShards int
	// Outputs, valid after Solve.
	Psi []float64 // potential at bin centers
	Ex  []float64 // -d psi / dx
	Ey  []float64 // -d psi / dy

	// Per-call inputs for the persistent task closures below. Closures
	// handed to parallel.For escape; capturing per-call locals would
	// heap-allocate one closure per pass per Solve, so the passes are
	// built once here and their varying inputs threaded through fields.
	rho        []float64 // charge plane of the current Solve/Energy
	tSrc, tDst []float64 // planes of the current transpose

	fwdRowsTask, fwdColsTask, normTask func(w, lo, hi int)
	invYTask, invXTask                 func(w, lo, hi int)
	transposeTask, energyTask          func(w, lo, hi int)
}

// NewSolver creates a solver for an m x m grid (m a power of two)
// using all cores. It returns a descriptive error for any m the packed
// transforms cannot handle (zero, negative, or not a power of two) —
// feeding such an m through would produce garbage transforms, and the
// grid size often arrives from user-facing options.
func NewSolver(m int) (*Solver, error) { return NewSolverWorkers(m, 0) }

// NewSolverWorkers is NewSolver with an explicit worker count;
// workers <= 0 selects all cores (GOMAXPROCS). Grids below 64x64 run
// serial regardless: a transform there is cheaper than a fork-join.
func NewSolverWorkers(m, workers int) (*Solver, error) {
	if err := checkGridSize(m); err != nil {
		return nil, err
	}
	workers = parallel.Count(workers)
	if m < 64 {
		workers = 1
	}
	// The finest-grained parallel regions shard over m/2 row pairs.
	if workers > m/2 {
		workers = m / 2
	}
	if workers < 1 {
		workers = 1
	}
	s := &Solver{
		m:    m,
		wu:   make([]float64, m),
		buv:  make([]float64, m*m),
		cxuv: make([]float64, m*m),
		cyuv: make([]float64, m*m),
		ta:   make([]float64, m*m),
		tb:   make([]float64, m*m),
		tc:   make([]float64, m*m),
		Psi:  make([]float64, m*m),
		Ex:   make([]float64, m*m),
		Ey:   make([]float64, m*m),
	}
	for w := 0; w < workers; w++ {
		s.trs = append(s.trs, fft.NewReal(m))
	}
	for u := 0; u < m; u++ {
		s.wu[u] = math.Pi * float64(u) / float64(m)
	}
	s.eShards = energyShards
	if s.eShards > m*m {
		s.eShards = m * m
	}
	s.buildTasks()
	return s, nil
}

// checkGridSize validates the grid edge shared by every backend: the
// spectral transforms need a power of two.
func checkGridSize(m int) error {
	if m <= 0 || m&(m-1) != 0 {
		return fmt.Errorf("poisson: grid size %d is not a positive power of two", m)
	}
	return nil
}

// buildTasks creates the persistent worker closures for every parallel
// pass. Each task receives a contiguous shard [lo, hi) of its fixed
// index space (row pairs, frequency rows, transpose tile bands or
// energy shards); the shard boundaries parallel.For picks never affect
// the values each index computes, preserving bitwise determinism.
func (s *Solver) buildTasks() {
	m := s.m
	s.fwdRowsTask = func(w, lo, hi int) {
		rho := s.rho
		for k := lo; k < hi; k++ {
			j := 2 * k
			s.trs[w].DCT2Pair(rho[j*m:(j+1)*m], rho[(j+1)*m:(j+2)*m],
				s.ta[j*m:(j+1)*m], s.ta[(j+1)*m:(j+2)*m])
		}
	}
	s.fwdColsTask = func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			u := 2 * k
			r0, r1 := s.tb[u*m:(u+1)*m], s.tb[(u+1)*m:(u+2)*m]
			s.trs[w].DCT2Pair(r0, r1, r0, r1)
		}
	}
	s.normTask = func(_, lo, hi int) {
		norm := 4 / float64(m*m)
		for u := lo; u < hi; u++ {
			su := 1.0
			if u == 0 {
				su = 0.5
			}
			wu := s.wu[u]
			base := u * m
			for v := 0; v < m; v++ {
				sv := 1.0
				if v == 0 {
					sv = 0.5
				}
				a := s.tb[base+v] * norm * su * sv
				wv := s.wu[v]
				k2 := wu*wu + wv*wv
				var b float64
				if k2 > 0 {
					b = a / k2
				}
				s.buv[base+v] = b
				s.cxuv[base+v] = b * wu
				s.cyuv[base+v] = b * wv
			}
		}
	}
	s.invYTask = func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			u := 2 * k
			tr := s.trs[w]
			b0, b1 := s.buv[u*m:(u+1)*m], s.buv[(u+1)*m:(u+2)*m]
			cx0, cx1 := s.cxuv[u*m:(u+1)*m], s.cxuv[(u+1)*m:(u+2)*m]
			cy0, cy1 := s.cyuv[u*m:(u+1)*m], s.cyuv[(u+1)*m:(u+2)*m]
			tr.IDCTPair(b0, cx0, b0, cx0)
			tr.IDCTPair(b1, cx1, b1, cx1)
			tr.IDSTPair(cy0, cy1, cy0, cy1)
		}
	}
	s.invXTask = func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			j := 2 * k
			tr := s.trs[w]
			tr.IDCTPair(s.ta[j*m:(j+1)*m], s.tb[j*m:(j+1)*m],
				s.Psi[j*m:(j+1)*m], s.Ey[j*m:(j+1)*m])
			tr.IDCTPair(s.ta[(j+1)*m:(j+2)*m], s.tb[(j+1)*m:(j+2)*m],
				s.Psi[(j+1)*m:(j+2)*m], s.Ey[(j+1)*m:(j+2)*m])
			tr.IDSTPair(s.tc[j*m:(j+1)*m], s.tc[(j+1)*m:(j+2)*m],
				s.Ex[j*m:(j+1)*m], s.Ex[(j+1)*m:(j+2)*m])
		}
	}
	s.transposeTask = func(_, lo, hi int) {
		src, dst := s.tSrc, s.tDst
		for bi := lo; bi < hi; bi++ {
			i0 := bi * tblk
			i1 := min(i0+tblk, m)
			for j0 := 0; j0 < m; j0 += tblk {
				j1 := min(j0+tblk, m)
				for i := i0; i < i1; i++ {
					row := dst[i*m : (i+1)*m]
					for j := j0; j < j1; j++ {
						row[j] = src[j*m+i]
					}
				}
			}
		}
	}
	s.energyTask = func(_, lo, hi int) {
		n := m * m
		shards := s.eShards
		rho := s.rho
		for sh := lo; sh < hi; sh++ {
			a, b := sh*n/shards, (sh+1)*n/shards
			e := 0.0
			for k := a; k < b; k++ {
				e += rho[k] * s.Psi[k]
			}
			s.epart[sh] = e
		}
	}
}

// M returns the grid size.
func (s *Solver) M() int { return s.m }

// Name returns the backend kind: the float64 spectral reference.
func (s *Solver) Name() string { return KindSpectral }

// Planes returns the potential and field planes of the latest Solve.
func (s *Solver) Planes() (psi, ex, ey []float64) { return s.Psi, s.Ex, s.Ey }

// transpose writes dst[i*m+j] = src[j*m+i] tile by tile (tblk square
// tiles), sharding tile rows of dst across the pool. Each task owns a
// disjoint band of dst rows.
func (s *Solver) transpose(src, dst []float64) {
	nb := (s.m + tblk - 1) / tblk
	s.tSrc, s.tDst = src, dst
	parallel.For(len(s.trs), nb, s.transposeTask)
	s.tSrc, s.tDst = nil, nil
}

// Solve computes Psi, Ex and Ey from the charge plane rho (length m*m,
// row-major [j*m + i]). The zero-frequency (mean) component of rho is
// discarded, so callers need not pre-center the charge.
func (s *Solver) Solve(rho []float64) {
	m := s.m
	if len(rho) != m*m {
		panic("poisson: charge plane size mismatch")
	}
	if m == 1 {
		// Only the removed (0,0) mode exists.
		s.Psi[0], s.Ex[0], s.Ey[0] = 0, 0, 0
		return
	}

	workers := len(s.trs)
	pairs := m / 2

	// Forward 2D DCT-II. Rows (x direction) first, two rows per FFT.
	s.rho = rho
	parallel.For(workers, pairs, s.fwdRowsTask)
	s.rho = nil
	// Columns (y direction): transpose so the pass runs on contiguous
	// rows, transforming in place. tb ends as X_{uv} transposed [u,v].
	s.transpose(s.ta, s.tb)
	parallel.For(workers, pairs, s.fwdColsTask)

	// Normalize so that rho[j][i] = sum a_{uv} cos(wu(i+1/2)) cos(wv(j+1/2)):
	// a_{uv} = (2 s_u / m)(2 s_v / m) * X_{uv}, s_0 = 1/2 else 1, and
	// fold in the potential and field coefficients in the same pass
	// (all planes stay in the transposed [u,v] layout; see normTask).
	parallel.For(workers, m, s.normTask)

	// Inverse y-pass, in place on the coefficient planes:
	//   Psi = IDCT_y(buv), Ex = IDCT_y(cxuv), Ey = IDST_y(cyuv).
	// Psi and Ex need the same transform kind, so each u row pairs them
	// into one FFT; the two Ey rows of the pair share another.
	parallel.For(workers, pairs, s.invYTask)

	// Back to row-major [j, u] for the x-pass.
	s.transpose(s.buv, s.ta)
	s.transpose(s.cyuv, s.tb)
	s.transpose(s.cxuv, s.tc)

	// Inverse x-pass straight into the outputs:
	//   Psi = IDCT_x, Ey = IDCT_x (paired), Ex = IDST_x (row pairs).
	// Ex = -d psi/dx = +sum b wu sin cos: psi's x-cosine differentiates
	// to -wu sin; Ey symmetric in y.
	parallel.For(workers, pairs, s.invXTask)
}

// Energy returns the total electric potential energy N = sum_b rho_b * psi_b
// for the charge plane used in the latest Solve. Callers pass the same
// rho they solved with; the (0,0) mode of psi is zero so any constant
// offset of rho does not contribute.
//
// The sum is sharded over the worker pool into energyShards fixed-width
// partials folded in shard order, so the result is bitwise-identical at
// every worker count (though it may differ in the last ulp from a
// single left-to-right fold).
func (s *Solver) Energy(rho []float64) float64 {
	if len(rho) != len(s.Psi) {
		panic("poisson: charge plane size mismatch")
	}
	s.rho = rho
	parallel.For(len(s.trs), s.eShards, s.energyTask)
	s.rho = nil
	e := 0.0
	for _, p := range s.epart[:s.eShards] {
		e += p
	}
	return e
}
