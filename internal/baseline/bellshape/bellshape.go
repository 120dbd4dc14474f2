// Package bellshape implements an APlace/NTUplace3-style nonlinear
// placer, the "Nonlinear" comparison category of Tables I-III: LSE
// wirelength smoothing plus the bell-shaped density potential of Naylor
// [14], optimized flat (no clustering) by conjugate gradient with
// Armijo line search — the configuration whose line-search cost
// motivates ePlace's Nesterov solver (Sec. V-A).
package bellshape

import (
	"math"

	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/nesterov"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// Options tunes the bell-shape placer.
type Options struct {
	// MaxOuter bounds penalty-growing outer iterations (default 30).
	MaxOuter int
	// InnerIters is the CG iteration count per outer round (default 30).
	InnerIters int
	// TargetOverflow stops the outer loop (default 0.10).
	TargetOverflow float64
	// GridM is the density grid size (0 = auto).
	GridM int
	// Workers is the worker count for the shared LSE wirelength model
	// (0 = all cores, 1 = serial); the bell-shape density stays serial.
	Workers int
	// Telemetry, when non-nil, receives one Sample per outer iteration
	// (stage "BellPL").
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

// model evaluates the bell-shape density cost
//
//	D(v) = sum_b (rho_b(v) - target_b)^2
//
// where rho_b accumulates each cell's separable bell potential.
type model struct {
	d    *netlist.Design
	idx  []int
	g    *grid.Grid
	m    int
	tgt  []float64 // per-bin target occupancy (capacity * rhoT)
	rho  []float64
	wl   *wirelength.Model
	lam  float64
	grad []float64 // wl gradient scratch
}

func newModel(d *netlist.Design, idx []int, m int, gamma float64) *model {
	g := grid.New(d.Region, m)
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			g.AddFixed(d.Cells[i].Rect())
		}
	}
	md := &model{
		d: d, idx: idx, g: g, m: m,
		tgt:  make([]float64, m*m),
		rho:  make([]float64, m*m),
		grad: make([]float64, 2*len(idx)),
		wl:   wirelength.New(d, idx, gamma),
	}
	md.wl.Kind = wirelength.LSE
	// Per-bin target: remaining capacity scaled to hold exactly the
	// movable area (uniform spreading objective).
	totalCap := 0.0
	binArea := g.BinArea()
	for b := range md.tgt {
		md.tgt[b] = math.Max(0, binArea-g.Fixed[b])
		totalCap += md.tgt[b]
	}
	movable := 0.0
	for _, ci := range idx {
		movable += d.Cells[ci].Area()
	}
	scale := movable / math.Max(totalCap, 1e-12)
	for b := range md.tgt {
		md.tgt[b] *= scale
	}
	return md
}

// bell evaluates the two-piece bell potential and derivative at
// distance dx from the cell center, with radius r.
func bell(dx, r float64) (p, dp float64) {
	a := math.Abs(dx)
	if a >= r {
		return 0, 0
	}
	if a <= r/2 {
		p = 1 - 2*a*a/(r*r)
		dp = -4 * dx / (r * r)
		return p, dp
	}
	t := a - r
	p = 2 * t * t / (r * r)
	dp = 4 * t / (r * r)
	if dx < 0 {
		dp = -dp
	}
	return p, dp
}

// accumulate builds rho from current positions; when g is non-nil it
// also adds the density gradient (scaled by lam) into g.
func (md *model) accumulate(addGrad []float64) float64 {
	for b := range md.rho {
		md.rho[b] = 0
	}
	m := md.m
	reg := md.g.Region
	bw, bh := md.g.BinW, md.g.BinH
	// First pass: build rho.
	type span struct {
		i0, i1, j0, j1 int
		rx, ry, norm   float64
	}
	spans := make([]span, len(md.idx))
	for k, ci := range md.idx {
		c := &md.d.Cells[ci]
		rx := c.W/2 + 2*bw
		ry := c.H/2 + 2*bh
		i0 := int((c.X - rx - reg.Lx) / bw)
		i1 := int(math.Ceil((c.X + rx - reg.Lx) / bw))
		j0 := int((c.Y - ry - reg.Ly) / bh)
		j1 := int(math.Ceil((c.Y + ry - reg.Ly) / bh))
		i0, j0 = clampI(i0, m), clampI(j0, m)
		i1, j1 = clampH(i1, m), clampH(j1, m)
		// Normalization so the cell contributes exactly its area.
		sum := 0.0
		for j := j0; j < j1; j++ {
			cy := reg.Ly + (float64(j)+0.5)*bh
			py, _ := bell(cy-c.Y, ry)
			for i := i0; i < i1; i++ {
				cx := reg.Lx + (float64(i)+0.5)*bw
				px, _ := bell(cx-c.X, rx)
				sum += px * py
			}
		}
		norm := 0.0
		if sum > 0 {
			norm = c.Area() / sum
		}
		spans[k] = span{i0, i1, j0, j1, rx, ry, norm}
		for j := j0; j < j1; j++ {
			cy := reg.Ly + (float64(j)+0.5)*bh
			py, _ := bell(cy-c.Y, ry)
			for i := i0; i < i1; i++ {
				cx := reg.Lx + (float64(i)+0.5)*bw
				px, _ := bell(cx-c.X, rx)
				md.rho[j*m+i] += norm * px * py
			}
		}
	}
	// Cost and optional gradient.
	cost := 0.0
	for b := range md.rho {
		e := md.rho[b] - md.tgt[b]
		cost += e * e
	}
	if addGrad != nil {
		n := len(md.idx)
		for k, ci := range md.idx {
			c := &md.d.Cells[ci]
			sp := spans[k]
			var gx, gy float64
			for j := sp.j0; j < sp.j1; j++ {
				cy := reg.Ly + (float64(j)+0.5)*bh
				py, dpy := bell(cy-c.Y, sp.ry)
				for i := sp.i0; i < sp.i1; i++ {
					cx := reg.Lx + (float64(i)+0.5)*bw
					px, dpx := bell(cx-c.X, sp.rx)
					e := md.rho[j*m+i] - md.tgt[j*m+i]
					// d rho_b / d cX = -norm * dpx * py (bell measured
					// from cell center).
					gx += 2 * e * sp.norm * (-dpx) * py
					gy += 2 * e * sp.norm * px * (-dpy)
				}
			}
			addGrad[k] += md.lam * gx
			addGrad[k+n] += md.lam * gy
		}
	}
	return cost
}

func (md *model) cost(v []float64) float64 {
	md.d.SetPositions(md.idx, v)
	return md.wl.Cost() + md.lam*md.accumulate(nil)
}

func (md *model) gradient(v, g []float64) {
	md.d.SetPositions(md.idx, v)
	md.wl.CostAndGradient(g)
	md.accumulate(g)
}

// Place runs bell-shape global placement over the movable cells idx.
func Place(d *netlist.Design, idx []int, opt Options) Result {
	opt.defaults()
	var res Result
	if len(idx) == 0 {
		res.HPWL = d.HPWL()
		return res
	}
	m := opt.GridM
	if m == 0 {
		m = grid.ChooseM(len(d.Cells))
	}
	qp.Place(d, idx)

	gamma := 0.05 * math.Max(d.Region.W(), d.Region.H()) / float64(m) * 8
	md := newModel(d, idx, m, gamma)
	md.wl.Workers = opt.Workers

	// Balance initial gradient norms for lambda, as ePlace does.
	v := d.Positions(idx)
	clamp := func(vv []float64) {
		n := len(idx)
		for k, ci := range idx {
			c := &d.Cells[ci]
			vv[k] = geom.Clamp(vv[k], d.Region.Lx+c.W/2, d.Region.Hx-c.W/2)
			vv[k+n] = geom.Clamp(vv[k+n], d.Region.Ly+c.H/2, d.Region.Hy-c.H/2)
		}
	}
	wg := make([]float64, 2*len(idx))
	md.wl.CostAndGradient(wg)
	dg := make([]float64, 2*len(idx))
	md.lam = 1
	md.accumulate(dg)
	var sw, sd float64
	for i := range wg {
		sw += math.Abs(wg[i])
		sd += math.Abs(dg[i])
	}
	if sd > 0 {
		md.lam = sw / sd
	}

	seed := 0.1 * md.g.BinW
	solver := nesterov.NewCG(v, md.cost, md.gradient, clamp, seed*10)
	for outer := 0; outer < opt.MaxOuter; outer++ {
		res.OuterIterations = outer + 1
		for k := 0; k < opt.InnerIters; k++ {
			solver.Step()
		}
		d.SetPositions(idx, solver.V)
		tau := overflowOf(d, idx, m)
		res.Overflow = tau
		if opt.Telemetry.Active() {
			opt.Telemetry.Sample(telemetry.Sample{
				Stage: "BellPL", Iteration: outer, HPWL: d.HPWL(),
				Overflow: tau, Lambda: md.lam, Steps: solver.Steps(),
			})
		}
		if tau <= opt.TargetOverflow {
			break
		}
		md.lam *= 2
	}
	d.SetPositions(idx, solver.V)
	clampCells(d, idx)
	res.CostEvals = solver.CostEvals()
	res.GradEvals = solver.GradEvals()
	res.Overflow = overflowOf(d, idx, m)
	res.HPWL = d.HPWL()
	return res
}

func overflowOf(d *netlist.Design, idx []int, m int) float64 {
	g := grid.New(d.Region, m)
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			g.AddFixed(d.Cells[i].Rect())
		}
	}
	for _, ci := range idx {
		c := &d.Cells[ci]
		g.AddMovable(c.X, c.Y, c.W, c.H)
	}
	return g.Overflow(d.TargetDensity)
}

func clampCells(d *netlist.Design, idx []int) {
	for _, ci := range idx {
		c := &d.Cells[ci]
		p := geom.ClampPoint(geom.Point{X: c.X, Y: c.Y}, c.W, c.H, d.Region)
		c.X, c.Y = p.X, p.Y
	}
}

func clampI(i, m int) int {
	if i < 0 {
		return 0
	}
	if i >= m {
		return m - 1
	}
	return i
}

func clampH(i, m int) int {
	if i < 0 {
		return 0
	}
	if i > m {
		return m
	}
	return i
}
