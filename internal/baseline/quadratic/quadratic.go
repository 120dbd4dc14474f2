// Package quadratic implements a SimPL/POLAR-lineage quadratic placer,
// the "Quadratic" comparison category of Tables I-III: the classic
// lower-bound / upper-bound iteration. Each round solves the
// bound-to-bound quadratic wirelength system with pseudo-net anchors
// toward the previous upper bound (the "lower bound": optimal
// wirelength, overlapping), then roughly legalizes that solution onto
// the rows (the "upper bound": overlap-free, longer wire), and anchors
// the next solve to it with linearly growing weight. The two bounds
// approach each other, which is exactly how SimPL, ComPLx and POLAR
// (Table I's strongest quadratic competitors) converge.
package quadratic

import (
	"math"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/telemetry"
)

// Options tunes the quadratic placer.
type Options struct {
	// MaxRounds bounds the lower/upper-bound iterations (default 60).
	MaxRounds int
	// TargetOverflow stops when the lower bound is spread (default 0.10).
	TargetOverflow float64
	// GridM is the density grid used for overflow checks (0 = auto).
	GridM int
	// AnchorWeight0 scales the per-round anchor weight
	// w = AnchorWeight0 * 1.2^round (default 0.005).
	AnchorWeight0 float64
	// Telemetry, when non-nil, receives one Sample per round
	// (stage "QuadPL").
	Telemetry *telemetry.Recorder
}

func (o *Options) defaults() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 60
	}
	if o.TargetOverflow <= 0 {
		o.TargetOverflow = 0.10
	}
	if o.AnchorWeight0 <= 0 {
		o.AnchorWeight0 = 0.005
	}
}

// Result reports a run.
type Result struct {
	Iterations int
	HPWL       float64
	Overflow   float64
}

// Place runs global placement over the movable cells idx. Standard
// cells are rough-legalized for the upper bound; movable macros anchor
// at their clamped lower-bound positions (mLG legalizes them later).
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
	n := len(idx)

	// Lower bound 0: pure wirelength.
	qp.Place(d, idx)
	cur := d.Positions(idx)

	model := qp.NewModel(d.Compile(), idx)
	anchors := make([]geom.Point, n)
	for round := 1; round <= opt.MaxRounds; round++ {
		res.Iterations = round
		d.SetPositions(idx, cur)
		tau := overflowOf(d, idx, m)
		res.Overflow = tau
		if opt.Telemetry.Active() {
			opt.Telemetry.Sample(telemetry.Sample{
				Stage: "QuadPL", Iteration: round, HPWL: d.HPWL(),
				Overflow: tau,
				Lambda:   opt.AnchorWeight0 * math.Pow(1.2, float64(round)),
			})
		}
		if tau <= opt.TargetOverflow {
			break
		}
		// Upper bound: look-ahead legalization of the lower bound by
		// order-preserving top-down geometric partitioning (the SimPL
		// LAL): recursively bisect each region by free capacity,
		// assigning cells in position order, then place each leaf's
		// cells evenly inside its region.
		lookAheadLegalize(d, idx, m, anchors)
		// Next lower bound: one B2B solve per axis from the previous one,
		// with pseudo-net springs to the anchors. Their weight is constant
		// in distance, so the restoring force grows with the distance to
		// the upper bound, and it ramps geometrically over the rounds, so
		// the bounds provably meet.
		d.SetPositions(idx, cur)
		w := opt.AnchorWeight0 * math.Pow(1.2, float64(round))
		if !model.Solve(anchors, w) {
			break
		}
		copy(cur, d.Positions(idx))
	}
	d.SetPositions(idx, cur)
	for _, ci := range idx {
		c := &d.Cells[ci]
		p := geom.ClampPoint(geom.Point{X: c.X, Y: c.Y}, c.W, c.H, d.Region)
		c.X, c.Y = p.X, p.Y
	}
	res.Overflow = overflowOf(d, idx, m)
	res.HPWL = d.HPWL()
	return res
}

// lookAheadLegalize computes the SimPL-style upper bound into anchors
// (indexed like idx): cells in satisfied areas stay put; around every
// overfilled bin a minimal region with sufficient free capacity is
// grown, and only that region's cells are spread by order-preserving
// top-down geometric bisection. Locality is what keeps the upper bound
// cheap once the lower bound is nearly spread.
func lookAheadLegalize(d *netlist.Design, idx []int, m int, anchors []geom.Point) {
	slot := make([]int, len(d.Cells))
	for i := range slot {
		slot[i] = -1
	}
	for k, ci := range idx {
		slot[ci] = k
		c := &d.Cells[ci]
		anchors[k] = geom.Point{X: c.X, Y: c.Y}
	}
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
	// Prefix sums of movable area and target capacity per bin.
	rhoT := d.TargetDensity
	binArea := g.BinArea()
	pm := make([]float64, (m+1)*(m+1))
	pc := make([]float64, (m+1)*(m+1))
	at := func(p []float64, i, j int) float64 { return p[j*(m+1)+i] }
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			capB := rhoT * math.Max(0, binArea-g.Fixed[j*m+i])
			pm[(j+1)*(m+1)+i+1] = g.Mov[j*m+i] + at(pm, i, j+1) + at(pm, i+1, j) - at(pm, i, j)
			pc[(j+1)*(m+1)+i+1] = capB + at(pc, i, j+1) + at(pc, i+1, j) - at(pc, i, j)
		}
	}
	sum := func(p []float64, i0, j0, i1, j1 int) float64 { // [i0,i1) x [j0,j1)
		return at(p, i1, j1) - at(p, i0, j1) - at(p, i1, j0) + at(p, i0, j0)
	}

	// Overfilled bins seed spreading regions. Each region grows until
	// its free capacity holds its movable area; overlapping regions are
	// merged (otherwise they would double-book the shared capacity) and
	// re-grown until the set is disjoint and every region fits.
	type box struct{ i0, j0, i1, j1 int }
	var boxes []box
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			capB := rhoT * math.Max(0, binArea-g.Fixed[j*m+i])
			if g.Mov[j*m+i]-capB > 1e-9 {
				boxes = append(boxes, box{i, j, i + 1, j + 1})
			}
		}
	}
	grow := func(b box) box {
		for {
			mov := sum(pm, b.i0, b.j0, b.i1, b.j1)
			capR := sum(pc, b.i0, b.j0, b.i1, b.j1)
			if mov <= capR || (b.i0 == 0 && b.j0 == 0 && b.i1 == m && b.j1 == m) {
				return b
			}
			if b.i0 > 0 {
				b.i0--
			}
			if b.j0 > 0 {
				b.j0--
			}
			if b.i1 < m {
				b.i1++
			}
			if b.j1 < m {
				b.j1++
			}
		}
	}
	overlaps := func(a, b box) bool {
		return a.i0 < b.i1 && b.i0 < a.i1 && a.j0 < b.j1 && b.j0 < a.j1
	}
	for i := range boxes {
		boxes[i] = grow(boxes[i])
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				if overlaps(boxes[i], boxes[j]) {
					a, b := boxes[i], boxes[j]
					boxes[i] = grow(box{
						i0: minI(a.i0, b.i0), j0: minI(a.j0, b.j0),
						i1: maxI(a.i1, b.i1), j1: maxI(a.j1, b.j1),
					})
					boxes = append(boxes[:j], boxes[j+1:]...)
					changed = true
					j--
				}
			}
		}
	}

	for _, b := range boxes {
		rect := geom.Rect{
			Lx: g.Region.Lx + float64(b.i0)*g.BinW,
			Ly: g.Region.Ly + float64(b.j0)*g.BinH,
			Hx: g.Region.Lx + float64(b.i1)*g.BinW,
			Hy: g.Region.Ly + float64(b.j1)*g.BinH,
		}
		var cells []int
		for _, ci := range idx {
			c := &d.Cells[ci]
			if rect.Contains(geom.Point{X: c.X, Y: c.Y}) {
				cells = append(cells, ci)
			}
		}
		spreadRegion(d, rect, cells, slot, anchors,
			math.Max(g.BinW, g.BinH))
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// spreadRegion assigns the cells' anchors inside rect by recursive
// capacity-balanced bisection with order-preserving assignment.
func spreadRegion(d *netlist.Design, rect geom.Rect, cells []int, slot []int, anchors []geom.Point, minSide float64) {
	if len(cells) == 0 {
		return
	}
	if len(cells) <= 2 || (rect.W() <= minSide && rect.H() <= minSide) {
		lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
		hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
		for _, ci := range cells {
			c := &d.Cells[ci]
			lo.X, lo.Y = math.Min(lo.X, c.X), math.Min(lo.Y, c.Y)
			hi.X, hi.Y = math.Max(hi.X, c.X), math.Max(hi.Y, c.Y)
		}
		ctr := rect.Center()
		for _, ci := range cells {
			c := &d.Cells[ci]
			p := ctr
			if hi.X > lo.X {
				p.X = rect.Lx + (c.X-lo.X)/(hi.X-lo.X)*rect.W()
			}
			if hi.Y > lo.Y {
				p.Y = rect.Ly + (c.Y-lo.Y)/(hi.Y-lo.Y)*rect.H()
			}
			// Clamp into the leaf, then into the die: a cell wider than
			// its leaf must still stay on the region.
			p = geom.ClampPoint(p, c.W, c.H, rect)
			anchors[slot[ci]] = geom.ClampPoint(p, c.W, c.H, d.Region)
		}
		return
	}
	vert := rect.W() >= rect.H()
	var ra, rb geom.Rect
	if vert {
		cut := (rect.Lx + rect.Hx) / 2
		ra = geom.Rect{Lx: rect.Lx, Ly: rect.Ly, Hx: cut, Hy: rect.Hy}
		rb = geom.Rect{Lx: cut, Ly: rect.Ly, Hx: rect.Hx, Hy: rect.Hy}
	} else {
		cut := (rect.Ly + rect.Hy) / 2
		ra = geom.Rect{Lx: rect.Lx, Ly: rect.Ly, Hx: rect.Hx, Hy: cut}
		rb = geom.Rect{Lx: rect.Lx, Ly: cut, Hx: rect.Hx, Hy: rect.Hy}
	}
	capA := freeCap(d, ra)
	capB := freeCap(d, rb)
	order := append([]int(nil), cells...)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := &d.Cells[order[i]], &d.Cells[order[j]]
		if vert {
			if ci.X != cj.X {
				return ci.X < cj.X
			}
		} else if ci.Y != cj.Y {
			return ci.Y < cj.Y
		}
		return order[i] < order[j]
	})
	total := 0.0
	for _, ci := range order {
		total += d.Cells[ci].Area()
	}
	wantA := total * capA / (capA + capB)
	var a, b []int
	acc := 0.0
	for _, ci := range order {
		if acc < wantA {
			a = append(a, ci)
			acc += d.Cells[ci].Area()
		} else {
			b = append(b, ci)
		}
	}
	spreadRegion(d, ra, a, slot, anchors, minSide)
	spreadRegion(d, rb, b, slot, anchors, minSide)
}

// freeCap returns region area minus fixed-cell overlap.
func freeCap(d *netlist.Design, r geom.Rect) float64 {
	c := r.Area()
	for i := range d.Cells {
		fc := &d.Cells[i]
		if fc.Fixed {
			c -= fc.Rect().Overlap(r)
		}
	}
	return math.Max(c, 1e-9)
}

// overflowOf rasterizes the current layout and returns tau.
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
