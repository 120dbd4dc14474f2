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
	return place(d, idx, opt, "BellPL", m, bellMaxTrials, newBellDensity(d, idx, m, gamma))
}

// bellDensity is the bell-shape density cost
//
//	D(v) = sum_b (rho_b(v) - target_b)^2
//
// where rho_b accumulates each cell's separable bell potential, paired
// with LSE wirelength over the Cell structs.
type bellDensity struct {
	d   *netlist.Design
	idx []int
	g   *grid.Grid
	tgt []float64 // per-bin target occupancy (capacity * rhoT)
	rho []float64
	wl  *wirelength.Model
}

func newBellDensity(d *netlist.Design, idx []int, m int, gamma float64) *bellDensity {
	g := grid.New(d.Region, m)
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			g.AddFixed(d.Cells[i].Rect())
		}
	}
	md := &bellDensity{
		d: d, idx: idx, g: g,
		tgt: make([]float64, m*m),
		rho: make([]float64, m*m),
		wl:  wirelength.New(d, idx, gamma),
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

func (md *bellDensity) wirelength() *wirelength.Model { return md.wl }

func (md *bellDensity) setPositions(v []float64) { md.d.SetPositions(md.idx, v) }

// overflow re-rasterizes the cells into the grid's movable layer; the
// penalty reads only the grid's geometry and fixed layer.
func (md *bellDensity) overflow() float64 {
	md.g.ClearMovable()
	for _, ci := range md.idx {
		c := &md.d.Cells[ci]
		md.g.AddMovable(c.X, c.Y, c.W, c.H)
	}
	return md.g.Overflow(md.d.TargetDensity)
}

// penalty builds rho from the Cell structs' positions; when addGrad is
// non-nil it also adds the density gradient (scaled by lam) into it.
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
	spans := make([]span, len(md.idx))
	for k, ci := range md.idx {
		c := &md.d.Cells[ci]
		rx := c.W/2 + 2*bw
		ry := c.H/2 + 2*bh
		i0 := int((c.X - rx - reg.Lx) / bw)
		i1 := int(math.Ceil((c.X + rx - reg.Lx) / bw))
		j0 := int((c.Y - ry - reg.Ly) / bh)
		j1 := int(math.Ceil((c.Y + ry - reg.Ly) / bh))
		i0, j0 = min(max(i0, 0), m-1), min(max(j0, 0), m-1)
		i1, j1 = min(max(i1, 0), m), min(max(j1, 0), m)
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
			addGrad[k] += lam * gx
			addGrad[k+n] += lam * gy
		}
	}
	return cost
}
