package legalize

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"eplace/internal/netlist"
	"eplace/internal/parallel"
)

// cluster is the Abacus cluster: a maximal run of abutting cells.
// Optimal position x = q/e; merging is associative. A Cells call keeps
// its clusters in one store (abacus), one slot per cell to place. A
// cluster's cells are a contiguous run of its segment's commit order,
// threaded left to right through the store's links: first,
// next[first], ..., last.
type cluster struct {
	x           float64 // optimal left edge
	e           float64 // total weight
	q           float64 // sum of w_i*(x_i' - offset_i)
	w           float64 // total width
	first, last int32
	// prev is the slot of the cluster on the left in the same segment,
	// or -1; fixupRow turns the chain around (see leftToRight).
	prev int32
}

// seg is one free row interval. Its clusters form a chain through the
// store, from top, the rightmost (-1: none), to the left.
type seg struct {
	lx, hx float64
	used   float64
	top    int32
}

// abacus is one Cells call's cluster store, indexed by a cell's
// position k in the call's x order (order[k] is the cell): slot k holds
// the cluster that committing order[k] opened, and next[k] the position
// of the cell on its right in the same cluster. A merge leaves the
// merged slot dead, so the store never grows. Bands touch the slots of
// their own cells only, so they share it.
type abacus struct {
	order    []int
	clusters []cluster
	next     []int32
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

// Cells legalizes the given standard cells onto the rows of the design
// cv was compiled from with Abacus (cluster dynamic programming per row),
// minimizing displacement from their global-placement positions in the
// view, around every other cell of the design as an obstacle (see
// FreeSegments), and writes the legal positions to the view. It returns
// the total and maximum displacement, or an error if capacity is
// insufficient.
//
// The work is sharded over row bands: each band legalizes its own cells
// against its own rows in parallel (disjoint state), cells that do not
// fit inside their band spill into a serial second pass over all rows,
// and displacement sums reduce in fixed band order. Results are
// bitwise-identical at every worker count (0 = all cores).
func Cells(cv *netlist.Compiled, cells []int, workers int) (total, max float64, err error) {
	d := cv.Design()
	if len(d.Rows) == 0 {
		return 0, 0, fmt.Errorf("legalize: design has no rows")
	}
	nw := parallel.Count(workers)
	rawSegs := FreeSegments(cv, cells)
	nseg := 0
	for _, r := range rawSegs {
		nseg += len(r)
	}
	rows := make([][]seg, len(d.Rows))
	segBuf := make([]seg, 0, nseg)
	for ri := range rawSegs {
		start := len(segBuf)
		for _, s := range rawSegs[ri] {
			segBuf = append(segBuf, seg{lx: s.Lx, hx: s.Hx, top: -1})
		}
		rows[ri] = segBuf[start:len(segBuf):len(segBuf)]
	}

	// Process cells in x order (Abacus) so per-row packing is coherent.
	// Every list below holds positions in this order.
	order := slices.Clone(cells)
	byX := func(a, b int) int {
		if c := cmp.Compare(cv.PosX[a], cv.PosX[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	slices.SortFunc(order, byX)
	st := &abacus{order: order, clusters: make([]cluster, len(order)), next: make([]int32, len(order))}

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
	// Assign each cell (x order preserved) to the band of its nearest
	// row: band b's cells are byBand[bandOff[b]:bandOff[b+1]].
	bandOf := func(k int) int {
		ci := order[k]
		return bandOfRow[nearestRow(rowY, cv.PosY[ci]-cv.CellH[ci]/2)]
	}
	bandOff := make([]int, nb+1)
	for k := range order {
		bandOff[bandOf(k)+1]++
	}
	for b := 0; b < nb; b++ {
		bandOff[b+1] += bandOff[b]
	}
	byBand := make([]int32, len(order))
	fill := slices.Clone(bandOff[:nb])
	for k := range order {
		b := bandOf(k)
		byBand[fill[b]] = int32(k)
		fill[b]++
	}

	// Parallel band pass: bands own disjoint row ranges and disjoint
	// cells, so they legalize independently. Cells with no in-band room
	// become per-band spill lists instead of errors.
	spills := make([][]int32, nb)
	bandTotal := make([]float64, nb)
	bandMax := make([]float64, nb)
	parallel.For(nw, nb, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			for _, k := range byBand[bandOff[b]:bandOff[b+1]] {
				disp, ok := placeOne(cv, rows, rowY, st, int(k), bandLo[b], bandLo[b+1])
				if !ok {
					spills[b] = append(spills[b], k)
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
	var spill []int32
	for b := range spills {
		spill = append(spill, spills[b]...)
	}
	slices.Sort(spill) // positions: (x, index) order
	for _, k := range spill {
		disp, ok := placeOne(cv, rows, rowY, st, int(k), 0, len(d.Rows))
		if !ok {
			ci := order[k]
			return total, max, fmt.Errorf("legalize: no room for cell %d (%s), w=%v", ci, d.Cells[ci].Name, cv.CellW[ci])
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
			fixupRow(cv, &cv.Design().Rows[ri], rows[ri], st)
		}
	})
	return total, max, nil
}

// placeOne legalizes the cell at position k of the x order into the
// rows of [rowLo, rowHi), trying rows outward from the nearest until the
// row-distance alone exceeds the best cost found. Returns ok=false when
// no segment in range fits.
func placeOne(cv *netlist.Compiled, rows [][]seg, rowY []float64, st *abacus, k, rowLo, rowHi int) (disp float64, ok bool) {
	d := cv.Design()
	ci := st.order[k]
	w, h := cv.CellW[ci], cv.CellH[ci]
	desiredX := cv.PosX[ci] - w/2
	desiredY := cv.PosY[ci] - h/2
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
				if s.hx-s.lx-s.used < w {
					continue
				}
				x := st.trial(s, desiredX, w)
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
	x, y := st.commit(s, k, desiredX, w)+w/2, row.Y+h/2
	cv.PosX[ci], cv.PosY[ci] = x, y
	disp = math.Abs(x-(desiredX+w/2)) + math.Abs(y-(desiredY+h/2))
	s.used += w
	return disp, true
}

// fixupRow snaps one row's cluster positions to sites and writes the
// cells' positions to the view. Snapping is all-or-nothing per segment:
// if any cluster cannot be site-aligned without collision (fractional
// segment boundaries can force this), the whole segment keeps the exact
// cluster positions, which are legal by construction.
func fixupRow(cv *netlist.Compiled, row *netlist.Row, segs []seg, st *abacus) {
	for si := range segs {
		s := &segs[si]
		head := st.leftToRight(s)
		onSites := row.SiteW > 0 && st.seat(nil, row, s, head, true)
		st.seat(cv, row, s, head, onSites)
	}
}

// seat walks the segment's clusters left to right from head (see
// leftToRight) and gives each a left edge: on the site grid when onSites,
// else the exact cluster position, pushed right of its left neighbour
// and left of the segment's end. With a view it writes the clusters'
// cells there, abutting in cluster order. It reports false when onSites
// finds a cluster that cannot be site-aligned without collision or
// overflow; it then writes nothing.
func (st *abacus) seat(cv *netlist.Compiled, row *netlist.Row, s *seg, head int32, onSites bool) bool {
	frontier := s.lx
	for k := head; k >= 0; k = st.clusters[k].prev {
		cl := &st.clusters[k]
		var x float64
		if onSites {
			x = snap(row, cl.x)
			if x < frontier {
				x = row.Lx + math.Ceil((frontier-row.Lx-1e-9)/row.SiteW)*row.SiteW
			}
			if x+cl.w > s.hx+1e-9 {
				x = row.Lx + math.Floor((s.hx-cl.w-row.Lx+1e-9)/row.SiteW)*row.SiteW
			}
			if x < frontier-1e-9 || x+cl.w > s.hx+1e-9 {
				return false
			}
		} else {
			x = math.Max(cl.x, frontier)
			if x+cl.w > s.hx {
				x = s.hx - cl.w
			}
			if x < frontier {
				x = frontier
			}
		}
		frontier = x + cl.w
		if cv == nil {
			continue
		}
		for m := cl.first; ; m = st.next[m] {
			ci := st.order[m]
			cv.PosX[ci] = x + cv.CellW[ci]/2
			x += cv.CellW[ci]
			if m == cl.last {
				break
			}
		}
	}
	return true
}

// leftToRight turns the segment's cluster chain around in place, so
// that prev runs from the leftmost cluster, which it returns, to the
// right. A segment's clusters never overlap (commit merges any that
// would), so the chain is in ascending x. No trial or commit may follow.
func (st *abacus) leftToRight(s *seg) int32 {
	right := int32(-1)
	for k := s.top; k >= 0; {
		left := st.clusters[k].prev
		st.clusters[k].prev = right
		right, k = k, left
	}
	return right
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

// trial simulates adding a cell (desired left edge desiredX, width w)
// to the segment and returns the final x the cell would get. The
// simulation runs the cluster recurrence backward over the real
// clusters without copying or mutating them: the would-be merged tail
// is carried in a virtual cluster whose fields follow exactly the same
// arithmetic (expression-for-expression) as commit, so trial and commit
// are bitwise-consistent.
func (st *abacus) trial(s *seg, desiredX, w float64) float64 {
	cur := cluster{e: 1, q: desiredX, w: w}
	cur.x = clampX(cur.q/cur.e, s.lx, s.hx, cur.w)
	for k := s.top; k >= 0; k = st.clusters[k].prev {
		prev := &st.clusters[k]
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

// commit adds the cell at position k permanently, as a new cluster in
// slot k, and returns its final x. The caller has already validated the
// fit via trial on the identical segment state. Collapse merges the
// last cluster into its predecessor while they overlap, then re-clamps;
// a merge appends the last cluster's cells to its predecessor's by one
// link.
func (st *abacus) commit(s *seg, k int, desiredX, w float64) float64 {
	cl := st.clusters
	last := int32(k)
	nc := cluster{e: 1, q: desiredX, w: w, first: last, last: last, prev: s.top}
	nc.x = clampX(nc.q/nc.e, s.lx, s.hx, nc.w)
	cl[last] = nc
	for cl[last].prev >= 0 {
		l, p := &cl[last], &cl[cl[last].prev]
		if p.x+p.w <= l.x+1e-12 {
			break
		}
		p.q += l.q - l.e*p.w
		p.e += l.e
		st.next[p.last] = l.first
		p.last = l.last
		p.w += l.w
		p.x = clampX(p.q/p.e, s.lx, s.hx, p.w)
		last = l.prev
	}
	s.top = last
	tail := &cl[last]
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
