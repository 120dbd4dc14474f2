// solver32.go is the Poisson solve the placer runs: the same
// cache-blocked five-pass pipeline as Solver, carried in float32 planes
// through fft.Real32's pair-packed transforms. Every intermediate plane
// (forward spectra, coefficient planes, transpose scratch) is float32,
// halving the memory traffic of the passes that dominate the float64
// solver at production grid sizes; the charge input and the
// Psi/Ex/Ey outputs stay float64, with the narrowing fused into the
// forward reorder gather (DCT2PairFrom64) and the widening into the
// inverse output scatter (IDCTPairTo64/IDSTPairTo64) so no separate
// conversion pass ever runs.
//
// Precision is error-controlled, not assumed: the first Solve and every
// 64th after it recompute the same charge plane with a lazily-built
// float64 reference Solver and compare the field planes (maxRelError
// over Ex and Ey). The fields ARE the density gradient up to the shared
// factors q_i and lambda, which cancel in a relative error, so this is
// exactly the relative lambda-scaled gradient error. If it ever exceeds
// 1e-3 the solver falls back to the float64 reference permanently for
// the rest of its lifetime. The cadence is solve-count based and the
// reference is itself bitwise-deterministic, so the guard never breaks
// determinism across worker counts.
package poisson

import (
	"math"

	"eplace/internal/fft"
	"eplace/internal/parallel"
)

// KindSpectral32 names the one Poisson path. Every snapshot is stamped
// with it, and the engine's solve span is "poisson/" + KindSpectral32.
const KindSpectral32 = "spectral32"

// Guard defaults: check the first solve and every 64th after it, and
// tolerate up to 0.1% relative field error. The observed float32
// pipeline error is ~1e-5 at m=512 (see the property tests), so the
// guard trips only on genuinely pathological charge planes.
const (
	defaultGuardEvery = 64
	defaultGuardTol   = 1e-3
)

// Solver32 is the float32 spectral Poisson solver. Not safe for
// concurrent method calls; use one per placement engine.
type Solver32 struct {
	m int
	// One float32 transform workspace per worker.
	trs []*fft.Real32
	// cb[u*m+v] = 4/m^2 * s_u * s_v / k2 (0 at the origin) and
	// wuf[u] = float32(pi*u/m): the whole normalization pass reduces to
	// three float32 multiplies per element. The coefficients are
	// computed in float64 and rounded once at construction, so the only
	// extra rounding vs a float64 pass is the final narrowing.
	cb  []float32
	wuf []float32
	// Coefficient planes in transposed [u*m + v] layout, float32.
	buv, cxuv, cyuv []float32
	// Whole-plane float32 scratch for the transform passes.
	ta, tb, tc []float32
	// Fixed-order Energy partials, same contract as Solver.
	epart   [energyShards]float64
	eShards int
	// Outputs, float64, valid after Solve.
	psi, ex, ey []float64

	// Runtime precision guard.
	guardEvery int     // check cadence in solves (<=0 disables)
	guardTol   float64 // max relative field error before fallback
	ref        *Solver // float64 reference, built on first guard check
	solves     int     // Solve calls so far
	fellBack   bool    // permanent float64 fallback engaged
	lastErr    float64 // relative field error at the latest guard check
	refWorkers int     // worker request to build ref with

	// Per-call inputs threaded through fields so the persistent task
	// closures below allocate nothing per Solve (same pattern as Solver).
	rho        []float64
	tSrc, tDst []float32

	fwdRowsTask, fwdColsTask, normTask func(w, lo, hi int)
	invYTask, invXTask                 func(w, lo, hi int)
	transposeTask, energyTask          func(w, lo, hi int)
}

// NewSolver32Workers creates a float32 spectral solver for an m x m grid
// (m a power of two); workers <= 0 selects all cores. The same grid-size
// check and small-grid serial clamp as the float64 solver apply.
func NewSolver32Workers(m, workers int) (*Solver32, error) {
	if err := checkGridSize(m); err != nil {
		return nil, err
	}
	s := &Solver32{
		m:    m,
		buv:  make([]float32, m*m),
		cxuv: make([]float32, m*m),
		cyuv: make([]float32, m*m),
		ta:   make([]float32, m*m),
		tb:   make([]float32, m*m),
		tc:   make([]float32, m*m),
		psi:  make([]float64, m*m),
		ex:   make([]float64, m*m),
		ey:   make([]float64, m*m),

		guardEvery: defaultGuardEvery,
		guardTol:   defaultGuardTol,
		refWorkers: workers,
	}
	for w := 0; w < solveWorkers(m, workers); w++ {
		s.trs = append(s.trs, fft.NewReal32(m))
	}
	wu := make([]float64, m)
	for u := 0; u < m; u++ {
		wu[u] = math.Pi * float64(u) / float64(m)
	}
	s.cb = make([]float32, m*m)
	s.wuf = make([]float32, m)
	norm := 4 / float64(m*m)
	for u := 0; u < m; u++ {
		s.wuf[u] = float32(wu[u])
		su := 1.0
		if u == 0 {
			su = 0.5
		}
		for v := 0; v < m; v++ {
			sv := 1.0
			if v == 0 {
				sv = 0.5
			}
			k2 := wu[u]*wu[u] + wu[v]*wu[v]
			if k2 > 0 {
				s.cb[u*m+v] = float32(norm * su * sv / k2)
			}
		}
	}
	s.eShards = energyShards
	if s.eShards > m*m {
		s.eShards = m * m
	}
	s.buildTasks()
	return s, nil
}

func (s *Solver32) buildTasks() {
	m := s.m
	s.fwdRowsTask = func(w, lo, hi int) {
		rho := s.rho
		for k := lo; k < hi; k++ {
			j := 2 * k
			s.trs[w].DCT2PairFrom64(rho[j*m:(j+1)*m], rho[(j+1)*m:(j+2)*m],
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
		for u := lo; u < hi; u++ {
			wu := s.wuf[u]
			base := u * m
			for v := 0; v < m; v++ {
				b := s.tb[base+v] * s.cb[base+v]
				s.buv[base+v] = b
				s.cxuv[base+v] = b * wu
				s.cyuv[base+v] = b * s.wuf[v]
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
			tr.IDCTPairTo64(s.ta[j*m:(j+1)*m], s.tb[j*m:(j+1)*m],
				s.psi[j*m:(j+1)*m], s.ey[j*m:(j+1)*m])
			tr.IDCTPairTo64(s.ta[(j+1)*m:(j+2)*m], s.tb[(j+1)*m:(j+2)*m],
				s.psi[(j+1)*m:(j+2)*m], s.ey[(j+1)*m:(j+2)*m])
			tr.IDSTPairTo64(s.tc[j*m:(j+1)*m], s.tc[(j+1)*m:(j+2)*m],
				s.ex[j*m:(j+1)*m], s.ex[(j+1)*m:(j+2)*m])
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
				e += rho[k] * s.psi[k]
			}
			s.epart[sh] = e
		}
	}
}

// Planes returns the potential and field planes of the latest Solve.
// The slices are overwritten by the next Solve. After a guard fallback
// they are the float64 reference's planes.
func (s *Solver32) Planes() (psi, ex, ey []float64) {
	if s.fellBack {
		return s.ref.Psi, s.ref.Ex, s.ref.Ey
	}
	return s.psi, s.ex, s.ey
}

// Solve computes the float64 potential and field planes from the
// float64 charge plane rho through the float32 transform pipeline,
// cross-checking against the float64 reference on the guard cadence.
func (s *Solver32) Solve(rho []float64) {
	m := s.m
	if len(rho) != m*m {
		panic("poisson: charge plane size mismatch")
	}
	s.solves++
	if s.fellBack {
		s.ref.Solve(rho)
		return
	}
	if m == 1 {
		s.psi[0], s.ex[0], s.ey[0] = 0, 0, 0
		return
	}

	workers := len(s.trs)
	pairs := m / 2

	// Same five passes as Solver.Solve, float32 planes throughout.
	s.rho = rho
	parallel.For(workers, pairs, s.fwdRowsTask)
	s.rho = nil
	s.transpose(s.ta, s.tb)
	parallel.For(workers, pairs, s.fwdColsTask)
	parallel.For(workers, m, s.normTask)
	parallel.For(workers, pairs, s.invYTask)
	s.transpose(s.buv, s.ta)
	s.transpose(s.cyuv, s.tb)
	s.transpose(s.cxuv, s.tc)
	parallel.For(workers, pairs, s.invXTask)

	if s.guardEvery > 0 && (s.solves-1)%s.guardEvery == 0 {
		s.guardCheck(rho)
	}
}

// guardCheck solves rho with the float64 reference and measures the
// relative field error of the float32 planes. Above guardTol the
// solver flips to the reference permanently (its planes are already
// filled for this solve).
func (s *Solver32) guardCheck(rho []float64) {
	if s.ref == nil {
		// The grid size was validated at construction, so this cannot fail.
		s.ref, _ = NewSolverWorkers(s.m, s.refWorkers)
	}
	s.ref.Solve(rho)
	errX := maxRelError(s.ex, s.ref.Ex)
	errY := maxRelError(s.ey, s.ref.Ey)
	s.lastErr = math.Max(errX, errY)
	if s.lastErr > s.guardTol {
		s.fellBack = true
	}
}

// maxRelError returns max_i |got_i - want_i| / max(max_i |want_i|, eps):
// the worst absolute deviation normalized by the reference plane's
// magnitude. Plane-normalized (not pointwise) because near-zero field
// samples would otherwise dominate with meaningless huge ratios; what
// the optimizer feels is the error relative to the gradient scale.
func maxRelError(got, want []float64) float64 {
	scale := 1e-30
	for _, w := range want {
		if w < 0 {
			w = -w
		}
		if w > scale {
			scale = w
		}
	}
	worst := 0.0
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst / scale
}

func (s *Solver32) transpose(src, dst []float32) {
	nb := (s.m + tblk - 1) / tblk
	s.tSrc, s.tDst = src, dst
	parallel.For(len(s.trs), nb, s.transposeTask)
	s.tSrc, s.tDst = nil, nil
}

// Energy returns sum_b rho_b * psi_b with the same fixed-order shard
// reduction as the float64 solver. The potential plane is the widened
// float32 result (or the reference's after a fallback), so the sum
// itself accumulates in float64.
func (s *Solver32) Energy(rho []float64) float64 {
	if s.fellBack {
		return s.ref.Energy(rho)
	}
	if len(rho) != len(s.psi) {
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
