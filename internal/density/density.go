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

	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/poisson"
	"eplace/internal/reuse"
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
// Allocation contract: steady-state Refresh, Gradient and Energy calls
// allocate nothing, at any worker count (parallel.For runs the shards
// on its persistent team).
type Model struct {
	Grid grid.Grid
	// Solver is the float32 spectral Poisson solver. Its field planes are
	// re-fetched into ex/ey after every solve: a precision-guard fallback
	// swaps them for the float64 reference's.
	Solver poisson.Solver32
	cv     *netlist.Compiled
	rho    []float64
	// binAreaInv normalizes charge to dimensionless bin density.
	binAreaInv float64
	// energy is N(v) of the latest Refresh once Energy has summed it;
	// energyStale says it has not yet.
	energy      float64
	energyStale bool
	workers     int
	// Field planes from the solver's latest solve (grid units).
	ex, ey []float64
	// solveTime is the wall time of the latest Poisson solve, for the
	// engine's Poisson span.
	solveTime time.Duration

	// Per-call input for the persistent Gradient closure (closures
	// passed to parallel.For escape; capturing locals would allocate
	// one closure per call).
	gradBuf  []float64
	gradTask func(wk, lo, hi int)
}

// NewModel builds a density model of the objects inside region over a
// caller-owned compiled view, with an m x m grid (m a power of two, e.g.
// grid.ChooseM). The cold flow passes the design's region; an ECO window
// passes a sub-rectangle of it, whose edge is then the Neumann boundary
// of the Poisson problem, as the die edge is for the whole region (Eq.
// 6). workers is the worker count of the rasterization, force and
// Poisson kernels; <= 0 selects all cores, 1 runs fully serial. Fixed
// cells and the cells the stage holds (held, which may be nil) are
// rasterized once, in cell order, clipped to region, as the fixed charge
// layer; call Refresh whenever movable positions change. The caller
// keeps the view's positions current (the engine writes them once per
// iteration via Compiled.SetPositions); the model reads the view alone,
// the fixed layer included. It errors on an invalid grid size. It is
// Reset on a zero value.
func NewModel(cv *netlist.Compiled, region geom.Rect, held []int, m, workers int) (*Model, error) {
	md := &Model{}
	if err := md.Reset(cv, region, cv.FixedOrHeldInto(nil, held), m, workers); err != nil {
		return nil, err
	}
	return md, nil
}

// Reset makes md the model NewModel builds, with still marking the cells
// of the fixed charge layer (Compiled.FixedOrHeldInto), and reuses what an
// earlier stage left: the grid's layers and raster scratch, the charge
// plane and the Poisson solver (see grid.Grid.Reset and
// poisson.Solver32.Reset). The fixed layer is rebuilt, the energy is 0
// until the next Refresh, and the solver's precision guard restarts.
func (md *Model) Reset(cv *netlist.Compiled, region geom.Rect, still []bool, m, workers int) error {
	if err := md.Solver.Reset(m, workers); err != nil {
		return err
	}
	g := &md.Grid
	g.Reset(region, m)
	md.cv = cv
	md.rho = reuse.Resize(md.rho, m*m)
	md.binAreaInv = 1 / g.BinArea()
	md.energy, md.energyStale = 0, false
	md.workers = parallel.Count(workers)
	for ci, s := range still {
		if s {
			g.AddFixed(cv.Rect(ci))
		}
	}
	if md.gradTask == nil {
		md.gradTask = md.gradRange
	}
	return nil
}

// Reserve gives the grid, the charge plane and the Poisson solver the
// capacity of an m x m grid and n movable objects (see grid.Grid.Reserve
// and poisson.Solver32.Reserve). Call it before a Reset.
func (md *Model) Reserve(n, m int) {
	md.Grid.Reserve(n, m)
	md.Solver.Reserve(m)
	md.rho = reuse.Grow(md.rho, m*m)
}

// gradRange writes the density gradient of footprints [lo, hi) into
// md.gradBuf, the vector Gradient passed.
func (md *Model) gradRange(_, lo, hi int) {
	g, grad := &md.Grid, md.gradBuf
	n := len(grad) / 2
	for k := lo; k < hi; k++ {
		fx, fy := g.FootprintForce(k, md.ex, md.ey, md.binAreaInv)
		// Convert grid-coordinate field to design units and negate the
		// force (Eq. 8: dN/dx_i = 2 q_i xi_ix, pointing uphill).
		grad[k] = -2 * fx / g.BinW
		grad[k+n] = -2 * fy / g.BinH
	}
}

// NewModelCompiled is NewModel over the whole region behind
// poisson.ValidateKind. kind must be "" or poisson.KindSpectral32: there
// is one solver, and the function stays only because the benchmark
// module calls it. It goes in the next benchmark change, together with
// eco.PlanOptions.
func NewModelCompiled(cv *netlist.Compiled, m, workers int, kind string) (*Model, error) {
	if err := poisson.ValidateKind(kind); err != nil {
		return nil, err
	}
	return NewModel(cv, cv.Design().Region, nil, m, workers)
}

// Refresh re-rasterizes the movable cells listed in idx (fillers go to
// the filler layer) and solves the Poisson system. idx must cover every
// non-fixed cell that should carry charge. The energy sum is left to the
// first Energy call: the Nesterov loop reads only the field.
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
	md.solveTime = time.Since(t0)
	md.energyStale = true
	_, md.ex, md.ey = md.Solver.Planes()
}

// Energy returns N(v) = sum rho*psi for the last Refresh (0 before the
// first), summed on the first call after that Refresh and cached for
// later ones. The sum is the solver's fixed-order reduction over the
// charge and potential planes the Refresh left, so it has the same bits
// whenever it is taken.
func (md *Model) Energy() float64 {
	if md.energyStale {
		md.energy = md.Solver.Energy(md.rho)
		md.energyStale = false
	}
	return md.energy
}

// LastSolveTime returns the wall time the latest Refresh spent in the
// Poisson solve, for the engine's Poisson span. It leaves out the
// energy sum, which Energy takes on demand.
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
