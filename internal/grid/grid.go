// Package grid implements the uniform bin decomposition of the
// placement region used both for density-overflow accounting (the
// constraint of Eq. 2) and as the charge grid of the electrostatic
// density model. The grid tracks fixed, movable and filler area per bin
// separately: overflow counts only real movable cells against the
// remaining bin capacity, while the electrostatic charge sums all three.
package grid

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/parallel"
)

// Grid is an M x M uniform bin decomposition of a region.
//
// Concurrency contract: a Grid is not safe for concurrent mutation;
// AddCellsSoA parallelizes internally over bin rows. Read-only queries
// (Overflow, MaxDensity, FootprintForce, ...) may run concurrently with
// each other but not with mutations.
type Grid struct {
	M      int
	Region geom.Rect
	BinW   float64
	BinH   float64
	// Fixed, Mov and Fill hold occupied area per bin, row-major
	// indexed [j*M + i] with i the x (column) index.
	Fixed []float64
	Mov   []float64
	Fill  []float64

	// Batch rasterization scratch (AddCellsSoA), reused across calls so
	// steady-state rasterization allocates nothing. rObjs[:nRaster] are
	// the footprints of the latest batch; they stay valid until the next
	// one, and FootprintForce reads them.
	rObjs   []rasterObj
	rowCnt  []int
	rowOff  []int
	rowIdx  []int32
	bounds  []int
	nRaster int

	// Per-call inputs for the persistent phase-1 closures (a closure
	// passed to parallel.For escapes and would be heap-allocated on
	// every call if it captured locals, so the inputs are threaded
	// through fields instead).
	soaIdx                 []int
	soaX, soaY, soaW, soaH []float64
	soaFill                []bool

	soaTask, splatTask func(wk, lo, hi int)
}

// New creates an M x M grid over region. M must be a positive power of
// two so the spectral solver can run on the same resolution.
func New(region geom.Rect, m int) *Grid {
	if m <= 0 || m&(m-1) != 0 {
		panic(fmt.Sprintf("grid: size %d is not a positive power of two", m))
	}
	if region.Empty() {
		panic("grid: empty region")
	}
	g := &Grid{
		M:      m,
		Region: region,
		BinW:   region.W() / float64(m),
		BinH:   region.H() / float64(m),
		Fixed:  make([]float64, m*m),
		Mov:    make([]float64, m*m),
		Fill:   make([]float64, m*m),
	}
	g.soaTask = func(_, lo, hi int) {
		ro := g.rObjs[:len(g.soaIdx)]
		for k := lo; k < hi; k++ {
			ci := g.soaIdx[k]
			g.stage(ro, k, g.soaX[ci], g.soaY[ci], g.soaW[ci], g.soaH[ci], g.soaFill[ci])
		}
	}
	g.splatTask = func(_, wlo, whi int) {
		ro := g.rObjs[:g.nRaster]
		rowIdx := g.rowIdx[:g.rowOff[g.M]]
		for w := wlo; w < whi; w++ {
			for j := g.bounds[w]; j < g.bounds[w+1]; j++ {
				g.splatRow(j, ro, rowIdx[g.rowOff[j]:g.rowOff[j+1]])
			}
		}
	}
	return g
}

// ChooseM picks a power-of-two grid size so that the bin count is close
// to the number of placeable objects (flat high-resolution grid, Sec.
// IV), clamped to [16, 1024].
func ChooseM(objects int) int {
	if objects < 1 {
		objects = 1
	}
	target := math.Sqrt(float64(objects))
	m := 1 << bits.Len(uint(int(target)))
	if m < 16 {
		m = 16
	}
	if m > 1024 {
		m = 1024
	}
	return m
}

// BinArea returns the area of one bin.
func (g *Grid) BinArea() float64 { return g.BinW * g.BinH }

// ClearMovable zeroes the movable and filler layers, keeping fixed.
func (g *Grid) ClearMovable() {
	for i := range g.Mov {
		g.Mov[i] = 0
		g.Fill[i] = 0
	}
}

// ClearAll zeroes every layer.
func (g *Grid) ClearAll() {
	for i := range g.Mov {
		g.Mov[i] = 0
		g.Fill[i] = 0
		g.Fixed[i] = 0
	}
}

// binRange returns the closed-open bin index range [i0,i1) covering the
// interval [lo,hi) along an axis with bin size s and origin o, clamped
// to [0, M).
func (g *Grid) binRange(lo, hi, o, s float64) (int, int) {
	i0 := int(math.Floor((lo - o) / s))
	i1 := int(math.Ceil((hi - o) / s))
	if i0 < 0 {
		i0 = 0
	}
	if i1 > g.M {
		i1 = g.M
	}
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

// splat adds rectangle r's overlap area, scaled by density, into layer.
func (g *Grid) splat(layer []float64, r geom.Rect, density float64) {
	if density == 0 || r.Empty() {
		return
	}
	i0, i1 := g.binRange(r.Lx, r.Hx, g.Region.Lx, g.BinW)
	j0, j1 := g.binRange(r.Ly, r.Hy, g.Region.Ly, g.BinH)
	for j := j0; j < j1; j++ {
		by0 := g.Region.Ly + float64(j)*g.BinH
		oy := min(r.Hy, by0+g.BinH) - max(r.Ly, by0)
		if oy <= 0 {
			continue
		}
		row := j * g.M
		for i := i0; i < i1; i++ {
			bx0 := g.Region.Lx + float64(i)*g.BinW
			ox := min(r.Hx, bx0+g.BinW) - max(r.Lx, bx0)
			if ox <= 0 {
				continue
			}
			layer[row+i] += ox * oy * density
		}
	}
}

// AddFixed rasterizes a fixed object's rectangle into the fixed layer.
func (g *Grid) AddFixed(r geom.Rect) { g.splat(g.Fixed, r.Intersect(g.Region), 1) }

// smoothed returns the footprint and charge-preserving density scale for
// an object centered at (cx, cy): objects narrower than sqrt(2) bins are
// inflated to sqrt(2) bins with density scaled so total charge (area) is
// preserved, the ePlace local density smoothing for sub-bin cells.
func (g *Grid) smoothed(cx, cy, w, h float64) (geom.Rect, float64) {
	const inflate = math.Sqrt2
	ew, eh := w, h
	scale := 1.0
	if minW := inflate * g.BinW; ew < minW {
		scale *= ew / minW
		ew = minW
	}
	if minH := inflate * g.BinH; eh < minH {
		scale *= eh / minH
		eh = minH
	}
	r := geom.NewRectCenter(cx, cy, ew, eh)
	// Keep the (possibly inflated) footprint inside the region so charge
	// is conserved at the boundary; Neumann walls reflect, not absorb.
	return geom.ClampRectInside(r, g.Region), scale
}

// AddMovable rasterizes a movable cell (center cx, cy, size w x h) into
// the movable layer with local smoothing.
func (g *Grid) AddMovable(cx, cy, w, h float64) {
	r, s := g.smoothed(cx, cy, w, h)
	g.splat(g.Mov, r, s)
}

// AddFiller rasterizes a filler cell into the filler layer with local
// smoothing.
func (g *Grid) AddFiller(cx, cy, w, h float64) {
	r, s := g.smoothed(cx, cy, w, h)
	g.splat(g.Fill, r, s)
}

// rasterObj is one smoothed, clamped rectangle ready to splat.
type rasterObj struct {
	r              geom.Rect
	scale          float64
	i0, i1, j0, j1 int32
	filler         bool
	skip           bool
}

// stage smooths, clamps and bin-ranges one object into rasterObj slot
// oi (phase 1 of batch rasterization; every slot is independent).
func (g *Grid) stage(ro []rasterObj, oi int, cx, cy, w, h float64, filler bool) {
	r, scale := g.smoothed(cx, cy, w, h)
	if scale == 0 || r.Empty() {
		ro[oi] = rasterObj{skip: true}
		return
	}
	i0, i1 := g.binRange(r.Lx, r.Hx, g.Region.Lx, g.BinW)
	j0, j1 := g.binRange(r.Ly, r.Hy, g.Region.Ly, g.BinH)
	ro[oi] = rasterObj{
		r: r, scale: scale, filler: filler,
		i0: int32(i0), i1: int32(i1), j0: int32(j0), j1: int32(j1),
	}
}

// ensureScratch sizes the rasterization scratch for n objects.
func (g *Grid) ensureScratch(n int) {
	if cap(g.rObjs) < n {
		g.rObjs = make([]rasterObj, n)
	}
	if g.rowCnt == nil {
		g.rowCnt = make([]int, g.M)
		g.rowOff = make([]int, g.M+1)
	}
}

// AddCellsSoA rasterizes the cells in idx into the movable and filler
// layers straight from SoA geometry arrays (indexed by cell, as in
// netlist.Compiled): centers x/y, extents w/h and filler flags, with the
// same local smoothing as AddMovable/AddFiller. Phase 1 stages every
// cell's footprint, phase 2 buckets the footprints by bin row, phase 3
// splats bin-row shards in parallel. Every bin row is owned by exactly
// one worker, and each row visits its overlapping cells in ascending idx
// order, so each bin accumulates contributions with the same values,
// order and association as the serial loop
//
//	for _, ci := range idx { AddMovable/AddFiller(x[ci], y[ci], w[ci], h[ci]) }
//
// making the result bitwise-identical for every worker count.
// workers <= 0 selects all cores. Steady-state calls allocate nothing.
// The staged footprint of idx[k] is footprint k until the next call.
func (g *Grid) AddCellsSoA(idx []int, x, y, w, h []float64, filler []bool, workers int) {
	workers = parallel.Count(workers)
	g.ensureScratch(len(idx))
	g.soaIdx, g.soaX, g.soaY, g.soaW, g.soaH, g.soaFill = idx, x, y, w, h, filler
	parallel.For(workers, len(idx), g.soaTask)
	g.soaIdx, g.soaX, g.soaY, g.soaW, g.soaH, g.soaFill = nil, nil, nil, nil, nil, nil
	g.finishRaster(len(idx), workers)
}

// finishRaster runs phases 2-3 over the n staged rasterObjs.
func (g *Grid) finishRaster(n, workers int) {
	m := g.M
	ro := g.rObjs[:n]

	// Phase 2: bucket objects by the bin rows they touch (CSR layout,
	// filled in ascending object order so each row's list is sorted).
	total := 0
	for j := range g.rowCnt {
		g.rowCnt[j] = 0
	}
	for oi := range ro {
		if ro[oi].skip {
			continue
		}
		for j := ro[oi].j0; j < ro[oi].j1; j++ {
			g.rowCnt[j]++
		}
		total += int(ro[oi].j1 - ro[oi].j0)
	}
	g.rowOff[0] = 0
	for j := 0; j < m; j++ {
		g.rowOff[j+1] = g.rowOff[j] + g.rowCnt[j]
		g.rowCnt[j] = g.rowOff[j] // reuse as the fill cursor
	}
	if cap(g.rowIdx) < total {
		// The incidence count creeps up all through a placement as cells
		// spread over more rows; headroom keeps that to a few regrowths.
		g.rowIdx = make([]int32, total+total/2)
	}
	rowIdx := g.rowIdx[:total]
	for oi := range ro {
		if ro[oi].skip {
			continue
		}
		for j := ro[oi].j0; j < ro[oi].j1; j++ {
			rowIdx[g.rowCnt[j]] = int32(oi)
			g.rowCnt[j]++
		}
	}

	// Phase 3: splat, sharded by bin row with shard boundaries balanced
	// on the per-row entry counts (dense regions get narrower shards).
	if cap(g.bounds) < workers+1 {
		g.bounds = make([]int, workers+1)
	}
	bounds := g.bounds[:workers+1]
	bounds[0] = 0
	bounds[workers] = m
	for w := 1; w < workers; w++ {
		target := total * w / workers
		bounds[w] = sort.SearchInts(g.rowOff[:m+1], target)
		if bounds[w] > m {
			bounds[w] = m
		}
	}
	g.nRaster = n
	parallel.For(workers, workers, g.splatTask)
}

// splatRow accumulates the x-overlap of each listed object with bin row
// j, mirroring splat's inner loop exactly.
func (g *Grid) splatRow(j int, ro []rasterObj, objIdx []int32) {
	by0 := g.Region.Ly + float64(j)*g.BinH
	row := j * g.M
	for _, oi := range objIdx {
		o := &ro[oi]
		oy := min(o.r.Hy, by0+g.BinH) - max(o.r.Ly, by0)
		if oy <= 0 {
			continue
		}
		layer := g.Mov
		if o.filler {
			layer = g.Fill
		}
		for i := o.i0; i < o.i1; i++ {
			bx0 := g.Region.Lx + float64(i)*g.BinW
			ox := min(o.r.Hx, bx0+g.BinW) - max(o.r.Lx, bx0)
			if ox <= 0 {
				continue
			}
			layer[row+int(i)] += ox * oy * o.scale
		}
	}
}

// Staged returns the number of footprints the latest AddCellsSoA staged.
func (g *Grid) Staged() int { return g.nRaster }

// FootprintForce integrates the field planes ex and ey (row-major M x M,
// like the layers) against the charge of staged footprint k, the one
// AddCellsSoA last rasterized for idx[k]: the sum over the footprint's
// bins of overlap area * smoothing scale * unit * field. Integrating
// over the staged record, not over a footprint rebuilt from the cell,
// makes the force see exactly the charge that was splatted. It only
// reads the grid and is safe to call from concurrent workers.
func (g *Grid) FootprintForce(k int, ex, ey []float64, unit float64) (fx, fy float64) {
	o := &g.rObjs[:g.nRaster][k]
	chargeScale := o.scale * unit
	for j := int(o.j0); j < int(o.j1); j++ {
		by0 := g.Region.Ly + float64(j)*g.BinH
		oy := min(o.r.Hy, by0+g.BinH) - max(o.r.Ly, by0)
		if oy <= 0 {
			continue
		}
		row := j * g.M
		for i := int(o.i0); i < int(o.i1); i++ {
			bx0 := g.Region.Lx + float64(i)*g.BinW
			ox := min(o.r.Hx, bx0+g.BinW) - max(o.r.Lx, bx0)
			if ox <= 0 {
				continue
			}
			q := ox * oy * chargeScale
			fx += q * ex[row+i]
			fy += q * ey[row+i]
		}
	}
	return fx, fy
}

// Charge writes the total electrostatic charge per bin (fixed + movable
// + filler area) into out, which must have length M*M, and removes the
// mean so the total charge is zero (Eq. 6's compatibility condition).
func (g *Grid) Charge(out []float64) {
	if len(out) != g.M*g.M {
		panic("grid: charge buffer size mismatch")
	}
	sum := 0.0
	for i := range out {
		out[i] = g.Fixed[i] + g.Mov[i] + g.Fill[i]
		sum += out[i]
	}
	mean := sum / float64(len(out))
	for i := range out {
		out[i] -= mean
	}
}

// Overflow returns the total density overflow tau in [0, 1]: the summed
// movable area exceeding each bin's remaining capacity rhoT*(binArea -
// fixed), normalized by the total movable area. Fillers are excluded:
// they are placement aids, not demand.
func (g *Grid) Overflow(rhoT float64) float64 {
	binArea := g.BinArea()
	over, total := 0.0, 0.0
	for b := range g.Mov {
		cap := rhoT * max(0, binArea-g.Fixed[b])
		if ex := g.Mov[b] - cap; ex > 0 {
			over += ex
		}
		total += g.Mov[b]
	}
	if total == 0 {
		return 0
	}
	return over / total
}

// OverflowPerBin returns the average scaled per-bin overflow used by the
// ISPD 2006 sHPWL formula: for each bin, max(0, density/rhoT - 1)
// averaged over bins carrying movable area, expressed in percent.
func (g *Grid) OverflowPerBin(rhoT float64) float64 {
	binArea := g.BinArea()
	sum, n := 0.0, 0
	for b := range g.Mov {
		if g.Mov[b] <= 0 {
			continue
		}
		freeCap := rhoT * max(0, binArea-g.Fixed[b])
		n++
		if freeCap <= 0 {
			sum += 1
			continue
		}
		if r := g.Mov[b]/freeCap - 1; r > 0 {
			sum += r
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// MaxDensity returns the peak bin density (occupied fraction, all layers).
func (g *Grid) MaxDensity() float64 {
	binArea := g.BinArea()
	m := 0.0
	for b := range g.Mov {
		if d := (g.Fixed[b] + g.Mov[b] + g.Fill[b]) / binArea; d > m {
			m = d
		}
	}
	return m
}

// TotalMovable returns the rasterized movable area (a conservation check:
// it must match the summed cell areas for cells inside the region).
func (g *Grid) TotalMovable() float64 {
	s := 0.0
	for _, v := range g.Mov {
		s += v
	}
	return s
}

// TotalFill returns the rasterized filler area.
func (g *Grid) TotalFill() float64 {
	s := 0.0
	for _, v := range g.Fill {
		s += v
	}
	return s
}

// BinCenter returns the center coordinate of bin (i, j).
func (g *Grid) BinCenter(i, j int) geom.Point {
	return geom.Point{
		X: g.Region.Lx + (float64(i)+0.5)*g.BinW,
		Y: g.Region.Ly + (float64(j)+0.5)*g.BinH,
	}
}

// BinOf returns the bin indices containing point p, clamped to the grid.
func (g *Grid) BinOf(p geom.Point) (int, int) {
	i := int((p.X - g.Region.Lx) / g.BinW)
	j := int((p.Y - g.Region.Ly) / g.BinH)
	if i < 0 {
		i = 0
	}
	if i >= g.M {
		i = g.M - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g.M {
		j = g.M - 1
	}
	return i, j
}
