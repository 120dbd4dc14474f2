// solver32.go is the Poisson solve the placer runs: the spectral
// pipeline of poisson.go instantiated with float32 planes over
// fft.Real[float32]'s pair-packed transforms. Every intermediate plane
// (forward spectra, coefficient planes, transpose scratch) is float32,
// halving the memory traffic of the passes that dominate the float64
// instantiation at production grid sizes; the charge input and the
// Psi/Ex/Ey outputs stay float64, with the narrowing fused into the
// forward reorder gather (DCT2PairFrom64) and the widening into the
// inverse output scatter (IDCTPairTo64/IDSTPairTo64) so no separate
// conversion pass ever runs.
//
// Precision is error-controlled, not assumed: the first Solve and every
// 64th after it recompute the same charge plane with a float64
// reference Solver, reset to the grid at the first check, and compare
// the field planes (maxRelError over Ex and Ey). The fields ARE the
// density gradient up to the shared factors q_i and lambda, which cancel
// in a relative error, so this is exactly the relative lambda-scaled
// gradient error. If it ever exceeds 1e-3 the solver falls back to the
// float64 reference until the next Reset. The cadence is solve-count
// based and the
// reference is itself bitwise-deterministic, so the guard never breaks
// determinism across worker counts.
package poisson

import "math"

// KindSpectral32 names the one Poisson path; the engine's solve span is
// "poisson/" + KindSpectral32.
const KindSpectral32 = "spectral32"

// Guard defaults: check the first solve and every 64th after it, and
// tolerate up to 0.1% relative field error. The observed float32
// pipeline error is ~1e-5 at m=512 (see the property tests), so the
// guard trips only on genuinely pathological charge planes.
const (
	defaultGuardEvery = 64
	defaultGuardTol   = 1e-3
)

// Solver32 is the float32 spectral Poisson solver: the float32
// instantiation of the pipeline plus its precision guard. Not safe for
// concurrent method calls; use one per placement engine.
type Solver32 struct {
	sp spectral[float32]

	// Runtime precision guard.
	guardEvery int     // check cadence in solves (<=0 disables)
	guardTol   float64 // max relative field error before fallback
	ref        Solver  // float64 reference, reset at the first guard check
	refStale   bool    // ref is not yet reset to the current grid
	solves     int     // Solve calls so far
	fellBack   bool    // float64 fallback engaged until the next Reset
	lastErr    float64 // relative field error at the latest guard check
	refWorkers int     // worker request to reset ref with
}

// NewSolver32Workers creates a float32 spectral solver for an m x m grid
// (m a power of two); workers <= 0 selects all cores. It is Reset on a
// zero value.
func NewSolver32Workers(m, workers int) (*Solver32, error) {
	s := &Solver32{}
	if err := s.Reset(m, workers); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the solver of an m x m grid with a fresh guard: the
// solve count, the fallback and the last error restart, so the check
// cadence runs from the first solve after it. The float32 planes and
// the float64 reference's are reused (see spectral.reset); the
// reference is reset to the new grid at its first check. The grid-size
// check and worker clamp are the float64 solver's.
func (s *Solver32) Reset(m, workers int) error {
	if err := s.sp.reset(m, workers); err != nil {
		return err
	}
	s.guardEvery, s.guardTol = defaultGuardEvery, defaultGuardTol
	s.refStale, s.refWorkers = true, workers
	s.solves, s.fellBack, s.lastErr = 0, false, 0
	return nil
}

// Reserve gives the float32 planes and the float64 reference's the
// capacity of an m x m grid, so that no later Reset up to that size
// allocates a plane. Call it before a Reset: it leaves the planes for
// the Reset to size.
func (s *Solver32) Reserve(m int) {
	s.sp.reserve(m)
	s.ref.reserve(m)
}

// Planes returns the potential and field planes of the latest Solve.
// The slices are overwritten by the next Solve. After a guard fallback
// they are the float64 reference's planes.
func (s *Solver32) Planes() (psi, ex, ey []float64) {
	if s.fellBack {
		return s.ref.Psi, s.ref.Ex, s.ref.Ey
	}
	return s.sp.Psi, s.sp.Ex, s.sp.Ey
}

// Solve computes the float64 potential and field planes from the
// float64 charge plane rho through the float32 transform pipeline,
// cross-checking against the float64 reference on the guard cadence.
func (s *Solver32) Solve(rho []float64) {
	s.solves++
	if s.fellBack {
		s.ref.Solve(rho)
		return
	}
	s.sp.Solve(rho)
	if s.guardEvery > 0 && (s.solves-1)%s.guardEvery == 0 {
		s.guardCheck(rho)
	}
}

// guardCheck solves rho with the float64 reference and measures the
// relative field error of the float32 planes. Above guardTol the
// solver flips to the reference until the next Reset (its planes are
// already filled for this solve).
func (s *Solver32) guardCheck(rho []float64) {
	if s.refStale {
		// The grid size was validated by Reset, so this cannot fail.
		_ = s.ref.reset(s.sp.m, s.refWorkers)
		s.refStale = false
	}
	s.ref.Solve(rho)
	errX := maxRelError(s.sp.Ex, s.ref.Ex)
	errY := maxRelError(s.sp.Ey, s.ref.Ey)
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

// Energy returns sum_b rho_b * psi_b over the widened float32 potential
// (or the reference's after a fallback), with the pipeline's
// fixed-order float64 shard reduction.
func (s *Solver32) Energy(rho []float64) float64 {
	if s.fellBack {
		return s.ref.Energy(rho)
	}
	return s.sp.Energy(rho)
}
