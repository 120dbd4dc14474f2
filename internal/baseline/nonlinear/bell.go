package nonlinear

import (
	"math"

	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/wirelength"
)

// bellMaxTrials bounds BellPL's line searches.
const bellMaxTrials = 20

// PlaceBell runs BellPL over the movable cells idx: LSE wirelength plus
// the bell-shaped density potential, through the shared CG loop.
func PlaceBell(d *netlist.Design, idx []int, opt Options) Result {
	opt.defaults()
	if len(idx) == 0 {
		return Result{HPWL: d.HPWL()}
	}
	m, gamma := seed(d, idx, opt)
	cv := d.Compile()
	return place(cv, idx, opt, "BellPL", m, bellMaxTrials, wirelength.LSE, gamma, newBellDensity(cv, idx, m))
}

// bellDensity is the bell-shape density cost
//
//	D(v) = sum_b (rho_b(v) - target_b)^2
//
// where rho_b accumulates each cell's separable bell potential, read
// from the compiled view's positions and extents.
type bellDensity struct {
	cv  *netlist.Compiled
	idx []int
	g   *grid.Grid
	tgt []float64 // per-bin target occupancy (capacity * rhoT)
	rho []float64
}

func newBellDensity(cv *netlist.Compiled, idx []int, m int) *bellDensity {
	d := cv.Design()
	g := grid.New(d.Region, m)
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			g.AddFixed(d.Cells[i].Rect())
		}
	}
	md := &bellDensity{
		cv: cv, idx: idx, g: g,
		tgt: make([]float64, m*m),
		rho: make([]float64, m*m),
	}
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

// overflow re-rasterizes the cells into the grid's movable layer; the
// penalty reads only the grid's geometry and fixed layer.
func (md *bellDensity) overflow(rhoT float64) float64 {
	cv := md.cv
	md.g.ClearMovable()
	md.g.AddCellsSoA(md.idx, cv.PosX, cv.PosY, cv.CellW, cv.CellH, cv.Filler, 1)
	return md.g.Overflow(rhoT)
}

// penalty builds rho from the view's positions; when addGrad is non-nil
// it also adds the density gradient (scaled by lam) into it.
func (md *bellDensity) penalty(lam float64, addGrad []float64) float64 {
	for b := range md.rho {
		md.rho[b] = 0
	}
	m := md.g.M
	reg := md.g.Region
	bw, bh := md.g.BinW, md.g.BinH
	// First pass: build rho.
	type span struct {
		i0, i1, j0, j1 int
		rx, ry, norm   float64
	}
	posX, posY := md.cv.PosX, md.cv.PosY
	spans := make([]span, len(md.idx))
	for k, ci := range md.idx {
		x, y := posX[ci], posY[ci]
		w, h := md.cv.CellW[ci], md.cv.CellH[ci]
		rx := w/2 + 2*bw
		ry := h/2 + 2*bh
		i0 := int((x - rx - reg.Lx) / bw)
		i1 := int(math.Ceil((x + rx - reg.Lx) / bw))
		j0 := int((y - ry - reg.Ly) / bh)
		j1 := int(math.Ceil((y + ry - reg.Ly) / bh))
		i0, j0 = min(max(i0, 0), m-1), min(max(j0, 0), m-1)
		i1, j1 = min(max(i1, 0), m), min(max(j1, 0), m)
		// Normalization so the cell contributes exactly its area.
		sum := 0.0
		for j := j0; j < j1; j++ {
			cy := reg.Ly + (float64(j)+0.5)*bh
			py, _ := bell(cy-y, ry)
			for i := i0; i < i1; i++ {
				cx := reg.Lx + (float64(i)+0.5)*bw
				px, _ := bell(cx-x, rx)
				sum += px * py
			}
		}
		norm := 0.0
		if sum > 0 {
			norm = w * h / sum
		}
		spans[k] = span{i0, i1, j0, j1, rx, ry, norm}
		for j := j0; j < j1; j++ {
			cy := reg.Ly + (float64(j)+0.5)*bh
			py, _ := bell(cy-y, ry)
			for i := i0; i < i1; i++ {
				cx := reg.Lx + (float64(i)+0.5)*bw
				px, _ := bell(cx-x, rx)
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
			x, y := posX[ci], posY[ci]
			sp := spans[k]
			var gx, gy float64
			for j := sp.j0; j < sp.j1; j++ {
				cy := reg.Ly + (float64(j)+0.5)*bh
				py, dpy := bell(cy-y, sp.ry)
				for i := sp.i0; i < sp.i1; i++ {
					cx := reg.Lx + (float64(i)+0.5)*bw
					px, dpx := bell(cx-x, sp.rx)
					e := md.rho[j*m+i] - md.tgt[j*m+i]
					// d rho_b / d cX = -norm * dpx * py (bell measured
					// from cell center).
					gx += 2 * e * sp.norm * (-dpx) * py
					gy += 2 * e * sp.norm * px * (-dpy)
				}
			}
			addGrad[k] += lam * gx
			addGrad[k+n] += lam * gy
		}
	}
	return cost
}
