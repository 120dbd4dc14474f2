// Package density implements the eDensity electrostatic density model
// of ePlace (Sec. IV): every object is a charge with electric quantity
// q_i equal to its area, the density cost N(v) = sum_i q_i psi_i is the
// total electric potential energy, and the density gradient on object i
// is the electric force 2*q_i*xi_i obtained from the spectral Poisson
// solution of Eq. (6). Fixed objects carry charge like everything else
// ("generalized without special handling of fixed blocks").
//
// The rasterizer reads cell geometry from the SoA arrays of a
// netlist.Compiled view instead of walking Cell structs; the engine
// shares one view across all models and writes positions into it once
// per iteration. The grid owns the smoothed footprints: Refresh stages
// and splats them, Gradient integrates the solved field over the same
// staged records.
package density

import (
	"time"

	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/poisson"
)

// Model evaluates the density cost and gradient for one design.
//
// Concurrency contract: a Model is NOT safe for concurrent use by
// multiple goroutines — Refresh mutates the grid, the charge plane and
// the Poisson solver workspace, and Gradient reads them. Parallelism is
// internal: the worker count fixed at construction fans out the movable
// rasterization, the spectral solve and the per-cell force integration,
// with results bitwise-identical for every worker count.
//
// Allocation contract: steady-state Refresh and Gradient calls allocate
// nothing at workers <= 1 (and only goroutine-spawn bookkeeping beyond
// that).
type Model struct {
	Grid *grid.Grid
	// Solver is the pluggable Poisson backend (spectral float64 by
	// default; see poisson.Kinds). Its field planes are re-fetched into
	// ex/ey after every solve — backends may remap them on fallback.
	Solver poisson.Backend
	cv     *netlist.Compiled
	rho    []float64
	// binAreaInv normalizes charge to dimensionless bin density.
	binAreaInv float64
	energy     float64
	workers    int
	// Field planes from the backend's latest solve (grid units).
	ex, ey []float64
	// solveTime is the wall time of the latest Poisson solve + energy
	// evaluation, for per-backend telemetry spans.
	solveTime time.Duration

	// Per-call input for the persistent Gradient closure (closures
	// passed to parallel.For escape; capturing locals would allocate
	// one closure per call).
	gradBuf  []float64
	gradTask func(wk, lo, hi int)
}

// NewModelCompiled builds a density model over a caller-owned compiled
// view with an m x m grid (m a power of two, e.g. grid.ChooseM) and the
// named Poisson backend (poisson.Kinds; "" selects spectral). workers is
// the worker count of the rasterization, force and Poisson kernels;
// <= 0 selects all cores, 1 runs fully serial. Fixed cells are
// rasterized once; call Refresh whenever movable positions change. The
// caller keeps the view's positions current (the engine writes them once
// per iteration via Compiled.SetPositions); Refresh performs no
// struct-to-SoA sync. It errors on an invalid grid size or an unknown
// backend kind.
func NewModelCompiled(cv *netlist.Compiled, m, workers int, kind string) (*Model, error) {
	d := cv.Design()
	solver, err := poisson.NewBackend(kind, m, workers)
	if err != nil {
		return nil, err
	}
	g := grid.New(d.Region, m)
	md := &Model{
		Grid:       g,
		Solver:     solver,
		cv:         cv,
		rho:        make([]float64, m*m),
		binAreaInv: 1 / g.BinArea(),
		workers:    parallel.Count(workers),
	}
	for _, ci := range d.FixedCells() {
		g.AddFixed(d.Cells[ci].Rect())
	}
	md.gradTask = func(_, lo, hi int) {
		grad := md.gradBuf
		n := len(grad) / 2
		for k := lo; k < hi; k++ {
			fx, fy := g.FootprintForce(k, md.ex, md.ey, md.binAreaInv)
			// Convert grid-coordinate field to design units and negate the
			// force (Eq. 8: dN/dx_i = 2 q_i xi_ix, pointing uphill).
			grad[k] = -2 * fx / g.BinW
			grad[k+n] = -2 * fy / g.BinH
		}
	}
	return md, nil
}

// Refresh re-rasterizes the movable cells listed in idx (fillers go to
// the filler layer), solves the Poisson system and caches the total
// energy. idx must cover every non-fixed cell that should carry charge.
func (md *Model) Refresh(idx []int) {
	md.Grid.ClearMovable()
	cv := md.cv
	md.Grid.AddCellsSoA(idx, cv.PosX, cv.PosY, cv.CellW, cv.CellH, cv.Filler, md.workers)
	md.Grid.Charge(md.rho)
	for b := range md.rho {
		md.rho[b] *= md.binAreaInv
	}
	t0 := time.Now()
	md.Solver.Solve(md.rho)
	md.energy = md.Solver.Energy(md.rho)
	md.solveTime = time.Since(t0)
	_, md.ex, md.ey = md.Solver.Planes()
}

// Energy returns N(v) for the last Refresh.
func (md *Model) Energy() float64 { return md.energy }

// Backend returns the Poisson backend's kind name (telemetry labels).
func (md *Model) Backend() string { return md.Solver.Name() }

// LastSolveTime returns the wall time the latest Refresh spent in the
// Poisson solve + energy evaluation, for per-backend kernel spans.
func (md *Model) LastSolveTime() time.Duration { return md.solveTime }

// Overflow returns the density overflow tau against rhoT for the last
// Refresh (movable cells only; fillers excluded).
func (md *Model) Overflow(rhoT float64) float64 { return md.Grid.Overflow(rhoT) }

// Gradient writes dN/dx and dN/dy for each cell in idx into grad, laid
// out {x_1..x_n, y_1..y_n} like netlist.Positions. idx is the slice
// given to the last Refresh: the force on idx[k] is the solved field
// integrated over footprint k as Refresh staged and splatted it
// (grid.FootprintForce), so the gradient is consistent with the energy
// by construction. A length that disagrees with the staged count is a
// caller bug and panics. The gradient is the negated electric force:
// descending it moves charge away from density peaks. Footprints shard
// over the worker pool; each force is an independent integral over
// shared read-only state, so the result does not depend on the worker
// count.
func (md *Model) Gradient(idx []int, grad []float64) {
	n := len(idx)
	if len(grad) != 2*n {
		panic("density: gradient buffer size mismatch")
	}
	if n != md.Grid.Staged() {
		panic("density: Gradient idx is not the slice the last Refresh staged")
	}
	md.gradBuf = grad
	parallel.For(md.workers, n, md.gradTask)
	md.gradBuf = nil
}
