// backend.go defines the pluggable Poisson-solve contract. The density
// model (and everything above it) talks to a Backend, not to the
// spectral Solver directly, so the float32 pipeline slots in behind one
// switch (core.Options.Poisson / eplace -poisson).
//
// Every backend obeys the same determinism contract as the rest of the
// gradient pipeline: fixed task boundaries independent of the worker
// count and fixed-order reductions, so Solve/Energy are
// bitwise-identical at every Workers setting — within a backend.
// Across backends the fields differ by spectral32's precision; the
// cross-backend tolerance is pinned by the property tests and the
// EXPERIMENTS precision study.
package poisson

import (
	"fmt"
	"slices"
)

// Backend kind names, as accepted by NewBackend and the -poisson flag.
const (
	// KindSpectral is the float64 cosine-basis reference solver.
	KindSpectral = "spectral"
	// KindSpectral32 is the mixed-precision spectral pipeline: float32
	// transforms with float64 plane I/O and a runtime precision guard.
	KindSpectral32 = "spectral32"
)

// Kinds lists the backend names in presentation order.
func Kinds() []string { return []string{KindSpectral, KindSpectral32} }

// NormalizeKind maps the empty string to the default backend
// (KindSpectral); any other value passes through for NewBackend to
// accept or reject. Checkpoints written before backends existed carry
// an empty kind, which this normalization makes equivalent to
// "spectral".
func NormalizeKind(kind string) string {
	if kind == "" {
		return KindSpectral
	}
	return kind
}

// CheckKind returns the unknown-backend error for a name NewBackend
// would refuse, e.g. one stamped into a snapshot by an older build.
func CheckKind(kind string) error {
	if !slices.Contains(Kinds(), NormalizeKind(kind)) {
		return fmt.Errorf("poisson: unknown backend %q (want one of %v)", kind, Kinds())
	}
	return nil
}

// Backend solves the Neumann Poisson problem of Eq. (6) on a fixed
// m x m grid and exposes the resulting potential and field planes.
// Implementations hold reusable workspace and are NOT safe for
// concurrent method calls; use one Backend per placement engine.
type Backend interface {
	// M returns the grid size.
	M() int
	// Name returns the backend kind (one of the constants above).
	Name() string
	// Solve computes the potential and field planes from the charge
	// plane rho (length m*m, row-major [j*m + i]). The mean of rho is
	// discarded, so callers need not pre-center the charge.
	Solve(rho []float64)
	// Energy returns sum_b rho_b * psi_b for the charge plane of the
	// latest Solve, with a fixed-order reduction.
	Energy(rho []float64) float64
	// Planes returns the potential and field planes written by the
	// latest Solve. The slices are owned by the backend and overwritten
	// by the next Solve; callers must not retain them across solves
	// (the density model reads them immediately after each Refresh).
	Planes() (psi, ex, ey []float64)
}

// NewBackend creates the named backend for an m x m grid (m a power of
// two); workers follows the core.Options convention (0 = all cores).
// An empty kind selects the default float64 spectral solver.
func NewBackend(kind string, m, workers int) (Backend, error) {
	switch NormalizeKind(kind) {
	case KindSpectral:
		return NewSolverWorkers(m, workers)
	case KindSpectral32:
		return NewSolver32Workers(m, workers)
	default:
		return nil, CheckKind(kind)
	}
}

// MaxRelError returns max_i |got_i - want_i| / max(max_i |want_i|, eps):
// the worst absolute deviation normalized by the reference plane's
// magnitude. Plane-normalized (not pointwise) because near-zero field
// samples would otherwise dominate with meaningless huge ratios; what
// the optimizer feels is the error relative to the gradient scale.
func MaxRelError(got, want []float64) float64 {
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
