package legalize

import (
	"fmt"
	"math"
	"sort"

	"eplace/internal/netlist"
	"eplace/internal/parallel"
)

// cluster is the Abacus cluster: a maximal run of abutting cells.
// Optimal position x = q/e; merging is associative.
type cluster struct {
	x     float64 // optimal left edge
	e     float64 // total weight
	q     float64 // sum of w_i*(x_i' - offset_i)
	w     float64 // total width
	cells []int
}

// seg is one free row interval with its placed clusters.
type seg struct {
	lx, hx   float64
	clusters []cluster
	used     float64
}

// Band partition constants: rows are grouped into contiguous bands of
// at least bandRows rows and roughly bandCellsTarget cells each, capped
// at maxBands. Small designs get one band — exactly the unbanded
// algorithm — while 50K+-cell designs split into enough bands to keep a
// worker pool busy. The partition is a pure function of the design
// (never the worker count), so banded legalization is
// bitwise-identical at every worker count.
const (
	bandRows        = 8
	bandCellsTarget = 2000
	maxBands        = 64
)

// Cells legalizes the given standard cells onto the design's rows with
// Abacus (cluster dynamic programming per row), minimizing displacement
// from their global-placement positions, around every other non-filler
// cell as an obstacle (see FreeSegments). It returns the total and
// maximum displacement, or an error if capacity is insufficient.
//
// The work is sharded over row bands: each band legalizes its own cells
// against its own rows in parallel (disjoint state), cells that do not
// fit inside their band spill into a serial second pass over all rows,
// and displacement sums reduce in fixed band order. Results are
// bitwise-identical at every worker count (0 = all cores).
func Cells(d *netlist.Design, cells []int, workers int) (total, max float64, err error) {
	if len(d.Rows) == 0 {
		return 0, 0, fmt.Errorf("legalize: design has no rows")
	}
	nw := parallel.Count(workers)
	rawSegs := FreeSegments(d, cells)
	rows := make([][]seg, len(d.Rows))
	for ri := range rawSegs {
		for _, s := range rawSegs[ri] {
			rows[ri] = append(rows[ri], seg{lx: s.Lx, hx: s.Hx})
		}
	}

	// Process cells in x order (Abacus) so per-row packing is coherent.
	order := append([]int(nil), cells...)
	sort.Slice(order, func(a, b int) bool {
		ca, cb := &d.Cells[order[a]], &d.Cells[order[b]]
		if ca.X != cb.X {
			return ca.X < cb.X
		}
		return order[a] < order[b]
	})

	// Row index sorted by Y for nearest-row search.
	rowY := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		rowY[i] = r.Y
	}

	// Contiguous row bands (design-derived boundaries; see constants).
	nb := len(d.Rows) / bandRows
	if byCells := len(cells) / bandCellsTarget; byCells < nb {
		nb = byCells
	}
	if nb < 1 {
		nb = 1
	}
	if nb > maxBands {
		nb = maxBands
	}
	bandLo := make([]int, nb+1)
	for b := 0; b <= nb; b++ {
		bandLo[b] = b * len(d.Rows) / nb
	}
	bandOfRow := make([]int, len(d.Rows))
	for b := 0; b < nb; b++ {
		for ri := bandLo[b]; ri < bandLo[b+1]; ri++ {
			bandOfRow[ri] = b
		}
	}
	// Assign each cell (x order preserved) to the band of its nearest row.
	bandCells := make([][]int, nb)
	for _, ci := range order {
		c := &d.Cells[ci]
		b := bandOfRow[nearestRow(rowY, c.Y-c.H/2)]
		bandCells[b] = append(bandCells[b], ci)
	}

	// Parallel band pass: bands own disjoint row ranges and disjoint
	// cells, so they legalize independently. Cells with no in-band room
	// become per-band spill lists instead of errors.
	spills := make([][]int, nb)
	bandTotal := make([]float64, nb)
	bandMax := make([]float64, nb)
	parallel.For(nw, nb, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			for _, ci := range bandCells[b] {
				disp, ok := placeOne(d, rows, rowY, ci, bandLo[b], bandLo[b+1])
				if !ok {
					spills[b] = append(spills[b], ci)
					continue
				}
				bandTotal[b] += disp
				if disp > bandMax[b] {
					bandMax[b] = disp
				}
			}
		}
	})
	// Fixed-order reduction over bands.
	for b := 0; b < nb; b++ {
		total += bandTotal[b]
		if bandMax[b] > max {
			max = bandMax[b]
		}
	}

	// Serial spill pass over all rows, in (x, index) order. Only here
	// can legalization fail: the whole design is out of capacity.
	var spill []int
	for b := range spills {
		spill = append(spill, spills[b]...)
	}
	sort.Slice(spill, func(a, b int) bool {
		ca, cb := &d.Cells[spill[a]], &d.Cells[spill[b]]
		if ca.X != cb.X {
			return ca.X < cb.X
		}
		return spill[a] < spill[b]
	})
	for _, ci := range spill {
		disp, ok := placeOne(d, rows, rowY, ci, 0, len(d.Rows))
		if !ok {
			c := &d.Cells[ci]
			return total, max, fmt.Errorf("legalize: no room for cell %d (%s), w=%v", ci, c.Name, c.W)
		}
		total += disp
		if disp > max {
			max = disp
		}
	}

	// Final per-segment fixups: snap cluster positions to sites and
	// write cells back (Abacus moves earlier cells when clusters
	// collapse). Rows are disjoint, so the fixup parallelizes cleanly.
	parallel.For(nw, len(rows), func(_, lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			fixupRow(d, &d.Rows[ri], rows[ri])
		}
	})
	return total, max, nil
}

// placeOne legalizes one cell into the rows of [rowLo, rowHi), trying
// rows outward from the nearest until the row-distance alone exceeds
// the best cost found. Returns ok=false when no segment in range fits.
func placeOne(d *netlist.Design, rows [][]seg, rowY []float64, ci, rowLo, rowHi int) (disp float64, ok bool) {
	c := &d.Cells[ci]
	desiredX := c.X - c.W/2
	desiredY := c.Y - c.H/2
	bestCost := math.Inf(1)
	bestRow, bestSeg := -1, -1
	nearest := nearestRow(rowY, desiredY)
	if nearest < rowLo {
		nearest = rowLo
	}
	if nearest >= rowHi {
		nearest = rowHi - 1
	}
	for radius := 0; ; radius++ {
		any := false
		for side := 0; side < 2; side++ {
			ri := nearest - radius
			if side == 1 {
				ri = nearest + radius
			}
			if ri < rowLo || ri >= rowHi || (radius == 0 && side == 1) {
				continue
			}
			rowDist := math.Abs(d.Rows[ri].Y - desiredY)
			if rowDist >= bestCost {
				continue
			}
			any = true
			for si := range rows[ri] {
				s := &rows[ri][si]
				if s.hx-s.lx-s.used < c.W {
					continue
				}
				x := abacusTrial(s, desiredX, c.W)
				if math.IsNaN(x) {
					continue
				}
				cost := math.Abs(x-desiredX) + rowDist
				if cost < bestCost {
					bestCost, bestRow, bestSeg = cost, ri, si
				}
			}
		}
		if !any && radius > 0 {
			break
		}
		if radius > rowHi-rowLo {
			break
		}
	}
	if bestRow < 0 {
		return 0, false
	}
	row := &d.Rows[bestRow]
	s := &rows[bestRow][bestSeg]
	c.X = abacusCommit(s, ci, desiredX, c.W) + c.W/2
	c.Y = row.Y + c.H/2
	disp = math.Abs(c.X-(desiredX+c.W/2)) + math.Abs(c.Y-(desiredY+c.H/2))
	s.used += c.W
	return disp, true
}

// fixupRow snaps one row's cluster positions to sites and writes cells
// back. Snapping is all-or-nothing per segment: if any cluster cannot
// be site-aligned without colliding (fractional segment boundaries can
// force this), the whole segment keeps the exact cluster positions,
// which are legal by construction.
func fixupRow(d *netlist.Design, row *netlist.Row, segs []seg) {
	for si := range segs {
		s := &segs[si]
		sort.Slice(s.clusters, func(a, b int) bool { return s.clusters[a].x < s.clusters[b].x })
		xs, ok := snappedSegment(row, s)
		if !ok {
			xs = unsnappedSegment(s)
		}
		for k := range s.clusters {
			x := xs[k]
			for _, ci := range s.clusters[k].cells {
				c := &d.Cells[ci]
				c.X = x + c.W/2
				x += c.W
			}
		}
	}
}

// snappedSegment computes site-aligned cluster left edges, or ok=false
// when some cluster cannot be aligned without collision or overflow.
func snappedSegment(row *netlist.Row, s *seg) ([]float64, bool) {
	if row.SiteW <= 0 {
		return nil, false
	}
	xs := make([]float64, len(s.clusters))
	frontier := s.lx
	for k := range s.clusters {
		cl := &s.clusters[k]
		x := snap(row, cl.x)
		if x < frontier {
			x = row.Lx + math.Ceil((frontier-row.Lx-1e-9)/row.SiteW)*row.SiteW
		}
		if x+cl.w > s.hx+1e-9 {
			x = row.Lx + math.Floor((s.hx-cl.w-row.Lx+1e-9)/row.SiteW)*row.SiteW
		}
		if x < frontier-1e-9 || x+cl.w > s.hx+1e-9 {
			return nil, false
		}
		xs[k] = x
		frontier = x + cl.w
	}
	return xs, true
}

// unsnappedSegment returns the exact (legal) cluster left edges.
func unsnappedSegment(s *seg) []float64 {
	xs := make([]float64, len(s.clusters))
	frontier := s.lx
	for k := range s.clusters {
		cl := &s.clusters[k]
		x := math.Max(cl.x, frontier)
		if x+cl.w > s.hx {
			x = s.hx - cl.w
		}
		if x < frontier {
			x = frontier
		}
		xs[k] = x
		frontier = x + cl.w
	}
	return xs
}

func nearestRow(rowY []float64, y float64) int {
	i := sort.SearchFloat64s(rowY, y)
	if i == 0 {
		return 0
	}
	if i >= len(rowY) {
		return len(rowY) - 1
	}
	if y-rowY[i-1] <= rowY[i]-y {
		return i - 1
	}
	return i
}

// abacusTrial simulates adding a cell (desired left edge desiredX,
// width w) to the segment and returns the final x the cell would get.
// The simulation runs the cluster recurrence backward over the real
// clusters without copying or mutating them: the would-be merged tail
// is carried in a virtual cluster whose fields follow exactly the same
// arithmetic (expression-for-expression) as abacusCommit, so trial and
// commit are bitwise-consistent.
func abacusTrial(s *seg, desiredX, w float64) float64 {
	cur := cluster{e: 1, q: desiredX, w: w}
	cur.x = clampX(cur.q/cur.e, s.lx, s.hx, cur.w)
	for k := len(s.clusters) - 1; k >= 0; k-- {
		prev := &s.clusters[k]
		if prev.x+prev.w <= cur.x+1e-12 {
			break
		}
		merged := cluster{
			q: prev.q + (cur.q - cur.e*prev.w),
			e: prev.e + cur.e,
			w: prev.w + cur.w,
		}
		merged.x = clampX(merged.q/merged.e, s.lx, s.hx, merged.w)
		cur = merged
	}
	if cur.x < s.lx-1e-9 || cur.x+cur.w > s.hx+1e-9 {
		return math.NaN()
	}
	return cur.x + cur.w - w
}

// abacusCommit adds the cell permanently (in place, no cluster-slice
// copy) and returns its final x. The caller has already validated the
// fit via abacusTrial on the identical segment state.
func abacusCommit(s *seg, ci int, desiredX, w float64) float64 {
	nc := cluster{e: 1, q: desiredX, w: w, cells: []int{ci}}
	nc.x = clampX(nc.q/nc.e, s.lx, s.hx, nc.w)
	s.clusters = append(s.clusters, nc)
	work := s.clusters
	// Collapse: merge the last cluster into its predecessor while they
	// overlap, then re-clamp.
	for len(work) >= 2 {
		last := &work[len(work)-1]
		prev := &work[len(work)-2]
		if prev.x+prev.w <= last.x+1e-12 {
			break
		}
		prev.q += last.q - last.e*prev.w
		prev.e += last.e
		prev.cells = append(prev.cells, last.cells...)
		prev.w += last.w
		prev.x = clampX(prev.q/prev.e, s.lx, s.hx, prev.w)
		work = work[:len(work)-1]
	}
	s.clusters = work
	tail := &work[len(work)-1]
	return tail.x + tail.w - w
}

func clampX(x, lx, hx, w float64) float64 {
	if x < lx {
		x = lx
	}
	if x+w > hx {
		x = hx - w
	}
	return x
}
