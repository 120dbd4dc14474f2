// Package density implements the eDensity electrostatic density model
// of ePlace (Sec. IV): every object is a charge with electric quantity
// q_i equal to its area, the density cost N(v) = sum_i q_i psi_i is the
// total electric potential energy, and the density gradient on object i
// is the electric force 2*q_i*xi_i obtained from the spectral Poisson
// solution of Eq. (6). Fixed objects carry charge like everything else
// ("generalized without special handling of fixed blocks").
//
// The rasterization and force kernels read cell geometry from the SoA
// arrays of a netlist.Compiled view instead of walking Cell structs;
// the engine shares one view across all models and writes positions
// into it once per iteration.
package density

import (
	"math"
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
	d      *netlist.Design
	cv     *netlist.Compiled
	// ownView marks a privately compiled view that must re-sync from the
	// Cell structs before each Refresh (callers may move cells directly).
	ownView bool
	rho     []float64
	// binAreaInv normalizes charge to dimensionless bin density.
	binAreaInv float64
	energy     float64
	workers    int
	// Field planes from the backend's latest solve (grid units).
	ex, ey []float64
	// solveTime is the wall time of the latest Poisson solve + energy
	// evaluation, for per-backend telemetry spans.
	solveTime time.Duration

	// Per-call inputs for the persistent Gradient closure (closures
	// passed to parallel.For escape; capturing locals would allocate
	// one closure per call).
	gradIdx  []int
	gradBuf  []float64
	gradTask func(wk, lo, hi int)
}

// NewModel builds a density model over design d with an m x m grid
// (m a power of two, e.g. grid.ChooseM) using all cores and the default
// spectral float64 backend. Fixed cells are rasterized once; call
// Refresh whenever movable positions change. It errors on an invalid
// grid size.
func NewModel(d *netlist.Design, m int) (*Model, error) {
	return NewModelWorkers(d, m, 0)
}

// NewModelWorkers is NewModel with an explicit worker count for the
// rasterization, force and Poisson kernels; workers <= 0 selects all
// cores, 1 runs fully serial. The model compiles a private view of d
// and re-syncs it from the Cell structs on every Refresh.
func NewModelWorkers(d *netlist.Design, m, workers int) (*Model, error) {
	return newModel(d.Compile(), m, workers, poisson.KindSpectral, true)
}

// NewModelCompiled builds a density model over a caller-owned compiled
// view with the named Poisson backend (poisson.Kinds; "" selects
// spectral). The caller keeps the view's positions current (the engine
// writes them once per iteration via Compiled.SetPositions); Refresh
// performs no struct-to-SoA sync. It errors on an invalid grid size or
// an unknown backend kind.
func NewModelCompiled(cv *netlist.Compiled, m, workers int, kind string) (*Model, error) {
	return newModel(cv, m, workers, kind, false)
}

func newModel(cv *netlist.Compiled, m, workers int, kind string, ownView bool) (*Model, error) {
	d := cv.Design()
	solver, err := poisson.NewBackend(kind, m, workers)
	if err != nil {
		return nil, err
	}
	g := grid.New(d.Region, m)
	md := &Model{
		Grid:       g,
		Solver:     solver,
		d:          d,
		cv:         cv,
		ownView:    ownView,
		rho:        make([]float64, m*m),
		binAreaInv: 1 / g.BinArea(),
		workers:    parallel.Count(workers),
	}
	for _, ci := range d.FixedCells() {
		g.AddFixed(d.Cells[ci].Rect())
	}
	md.gradTask = func(_, lo, hi int) {
		cv, grad := md.cv, md.gradBuf
		n := len(md.gradIdx)
		for k := lo; k < hi; k++ {
			ci := md.gradIdx[k]
			fx, fy := md.force(cv.PosX[ci], cv.PosY[ci], cv.CellW[ci], cv.CellH[ci])
			// Convert grid-coordinate field to design units and negate the
			// force (Eq. 8: dN/dx_i = 2 q_i xi_ix, pointing uphill).
			grad[k] = -2 * fx / md.Grid.BinW
			grad[k+n] = -2 * fy / md.Grid.BinH
		}
	}
	return md, nil
}

// Refresh re-rasterizes the movable cells listed in idx (fillers go to
// the filler layer), solves the Poisson system and caches the total
// energy. idx must cover every non-fixed cell that should carry charge.
func (md *Model) Refresh(idx []int) {
	if md.ownView {
		md.cv.SyncGeometry()
	}
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
// out {x_1..x_n, y_1..y_n} like netlist.Positions. The gradient is the
// negated electric force: descending it moves charge away from density
// peaks. Footprints use the same local smoothing as rasterization so
// the gradient is consistent with the energy. Cells shard over the
// worker pool; every cell's force is an independent integral over the
// solved field, so the result does not depend on the worker count.
// Geometry comes from the compiled view as synced at the last Refresh.
func (md *Model) Gradient(idx []int, grad []float64) {
	n := len(idx)
	if len(grad) != 2*n {
		panic("density: gradient buffer size mismatch")
	}
	md.gradIdx, md.gradBuf = idx, grad
	parallel.For(md.workers, n, md.gradTask)
	md.gradIdx, md.gradBuf = nil, nil
}

// forceOn integrates the force on cell c's current struct geometry; it
// is the pointer-based reference wrapper around force.
func (md *Model) forceOn(c *netlist.Cell) (fx, fy float64) {
	return md.force(c.X, c.Y, c.W, c.H)
}

// force integrates charge-density * field over the smoothed footprint
// of an object centered at (cx, cy) with extents w x h, returning the
// force components in grid units. It only reads shared state (grid
// geometry, solved field planes) and is safe to call from worker
// goroutines.
func (md *Model) force(cx, cy, w, h float64) (fx, fy float64) {
	g := md.Grid
	m := g.M
	r, scale := smoothedRect(g, cx, cy, w, h)
	i0 := int(math.Floor((r.Lx - g.Region.Lx) / g.BinW))
	i1 := int(math.Ceil((r.Hx - g.Region.Lx) / g.BinW))
	j0 := int(math.Floor((r.Ly - g.Region.Ly) / g.BinH))
	j1 := int(math.Ceil((r.Hy - g.Region.Ly) / g.BinH))
	if i0 < 0 {
		i0 = 0
	}
	if j0 < 0 {
		j0 = 0
	}
	if i1 > m {
		i1 = m
	}
	if j1 > m {
		j1 = m
	}
	chargeScale := scale * md.binAreaInv
	for j := j0; j < j1; j++ {
		by0 := g.Region.Ly + float64(j)*g.BinH
		oy := min(r.Hy, by0+g.BinH) - max(r.Ly, by0)
		if oy <= 0 {
			continue
		}
		row := j * m
		for i := i0; i < i1; i++ {
			bx0 := g.Region.Lx + float64(i)*g.BinW
			ox := min(r.Hx, bx0+g.BinW) - max(r.Lx, bx0)
			if ox <= 0 {
				continue
			}
			q := ox * oy * chargeScale
			fx += q * md.ex[row+i]
			fy += q * md.ey[row+i]
		}
	}
	return fx, fy
}

// smoothedRect mirrors grid's local smoothing: sub-bin objects inflate
// to sqrt(2) bins with charge preserved, clamped inside the region.
func smoothedRect(g *grid.Grid, cx, cy, w, h float64) (r rectT, scale float64) {
	const inflate = math.Sqrt2
	ew, eh := w, h
	scale = 1.0
	if minW := inflate * g.BinW; ew < minW {
		scale *= ew / minW
		ew = minW
	}
	if minH := inflate * g.BinH; eh < minH {
		scale *= eh / minH
		eh = minH
	}
	lx := cx - ew/2
	ly := cy - eh/2
	hx := cx + ew/2
	hy := cy + eh/2
	// Clamp inside region (translate).
	if lx < g.Region.Lx {
		hx += g.Region.Lx - lx
		lx = g.Region.Lx
	} else if hx > g.Region.Hx {
		lx -= hx - g.Region.Hx
		hx = g.Region.Hx
	}
	if ly < g.Region.Ly {
		hy += g.Region.Ly - ly
		ly = g.Region.Ly
	} else if hy > g.Region.Hy {
		ly -= hy - g.Region.Hy
		hy = g.Region.Hy
	}
	return rectT{lx, ly, hx, hy}, scale
}

type rectT struct{ Lx, Ly, Hx, Hy float64 }
