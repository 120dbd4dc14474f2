// Package nonlinear implements the "nonlinear" comparison placers of
// Tables I-III: flat placement of a smooth wirelength W(v) plus lambda
// times a density penalty D(v), minimized by conjugate gradient with
// Armijo line search while lambda doubles every round, the line-search
// cost ePlace's Nesterov solver removes (Sec. V-A, footnote 2). PlaceBell
// (BellPL) pairs LSE with the bell-shaped potential of APlace/NTUplace3;
// PlaceFFTPL (FFTPL [10]) pairs WA with ePlace's own eDensity.
package nonlinear

import (
	"math"

	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// Options tunes both nonlinear placers.
type Options struct {
	// MaxOuter bounds penalty-growing outer iterations (default 30).
	MaxOuter int
	// InnerIters is the CG iteration count per outer round (default 30).
	InnerIters int
	// TargetOverflow stops the outer loop (default 0.10).
	TargetOverflow float64
	// GridM is the density grid size (0 = auto).
	GridM int
	// Workers is the worker count for the wirelength model and FFTPL's
	// eDensity kernels (0 = all cores, 1 = serial); the bell-shape
	// density stays serial. Results do not depend on it.
	Workers int
	// Telemetry, when non-nil, receives one Sample per outer iteration
	// (stage "BellPL" or "FFTPL").
	Telemetry *telemetry.Recorder
}

func (o *Options) defaults() {
	if o.MaxOuter <= 0 {
		o.MaxOuter = 30
	}
	if o.InnerIters <= 0 {
		o.InnerIters = 30
	}
	if o.TargetOverflow <= 0 {
		o.TargetOverflow = 0.10
	}
}

// Result reports a run.
type Result struct {
	OuterIterations int
	CostEvals       int
	GradEvals       int
	HPWL            float64
	Overflow        float64
}

// objective is one density term D(v) of the shared loop. It reads the
// positions from the compiled view the loop scatters v into.
type objective interface {
	// penalty returns D at the view's positions; when grad is non-nil it
	// also adds lam * dD/dv into grad.
	penalty(lam float64, grad []float64) float64
	// overflow returns the density overflow of the real cells (fillers
	// excluded) at the view's positions against target density rhoT.
	overflow(rhoT float64) float64
}

// seed runs the shared start of both placers: the quadratic initial
// placement of idx, the grid size m and the wirelength smoothing gamma.
func seed(d *netlist.Design, idx []int, opt Options) (m int, gamma float64) {
	m = opt.GridM
	if m == 0 {
		m = grid.ChooseM(len(d.Cells))
	}
	qp.Place(d, idx)
	return m, 0.05 * math.Max(d.Region.W(), d.Region.H()) / float64(m) * 8
}

// place is the shared outer loop over the cells idx, which obj covers
// on an m x m grid: W is the kind model of smoothing gamma over cv,
// lambda balances the initial gradient norms, then every round runs
// InnerIters CG steps on W + lambda*D, stops once the overflow reaches
// TargetOverflow and otherwise doubles lambda. maxTrials bounds each line
// search. Every evaluation scatters its v into cv; each round writes the
// solver's positions back (Compiled.WriteBack).
func place(cv *netlist.Compiled, idx []int, opt Options, stage string, m, maxTrials int, kind wirelength.Kind, gamma float64, obj objective) Result {
	var res Result
	d := cv.Design()
	wl := wirelength.NewCompiled(cv, idx, gamma)
	wl.Kind = kind
	wl.Workers = opt.Workers

	// Balance initial gradient norms for lambda, as ePlace does. The
	// view was compiled from the design as it stands, at v.
	v := make([]float64, 2*len(idx))
	cv.PositionsInto(idx, v)
	clamp := func(vv []float64) {
		n := len(idx)
		for k, ci := range idx {
			w, h := cv.CellW[ci], cv.CellH[ci]
			vv[k] = geom.Clamp(vv[k], d.Region.Lx+w/2, d.Region.Hx-w/2)
			vv[k+n] = geom.Clamp(vv[k+n], d.Region.Ly+h/2, d.Region.Hy-h/2)
		}
	}
	wg := make([]float64, 2*len(idx))
	wl.CostAndGradient(wg)
	dg := make([]float64, 2*len(idx))
	obj.penalty(1, dg)
	var sw, sd float64
	for i := range wg {
		sw += math.Abs(wg[i])
		sd += math.Abs(dg[i])
	}
	lam := 1.0
	if sd > 0 {
		lam = sw / sd
	}
	cost := func(v []float64) float64 {
		cv.SetPositions(idx, v)
		return wl.Cost() + lam*obj.penalty(lam, nil)
	}
	gradient := func(v, g []float64) {
		cv.SetPositions(idx, v)
		wl.CostAndGradient(g)
		obj.penalty(lam, g)
	}

	// The first trial step is ten of ePlace's seed steps of 0.1 bin.
	solver := newCG(v, cost, gradient, clamp, 0.1*(d.Region.W()/float64(m))*10, maxTrials)
	for outer := 0; outer < opt.MaxOuter; outer++ {
		res.OuterIterations = outer + 1
		for k := 0; k < opt.InnerIters; k++ {
			solver.step()
		}
		// Every CG step clamps its candidate, so solver.v is in the region.
		cv.WriteBack(idx, solver.v)
		res.Overflow = obj.overflow(d.TargetDensity)
		if opt.Telemetry.Active() {
			opt.Telemetry.Sample(telemetry.Sample{
				Stage: stage, Iteration: outer, HPWL: d.HPWL(),
				Overflow: res.Overflow, Lambda: lam, Steps: solver.steps,
			})
		}
		if res.Overflow <= opt.TargetOverflow {
			break
		}
		lam *= 2
	}
	res.CostEvals = solver.costEvals
	res.GradEvals = solver.gradEvals
	res.HPWL = d.HPWL()
	return res
}
