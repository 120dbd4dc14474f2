// Package legalize turns global-placement layouts into legal ones: the
// two-level annealing macro legalizer mLG of Sec. VI-A, and row-based
// standard-cell legalization (greedy Tetris and Abacus-style cluster
// dynamic programming) used by the cDP stage. A legality checker
// validates results in tests and at stage boundaries.
package legalize

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// BuildRows synthesizes uniform standard-cell rows covering the region
// when the design has none. rowHeight should match the standard-cell
// height; siteW is the x snap grid (0 disables snapping).
func BuildRows(d *netlist.Design, rowHeight, siteW float64) {
	if rowHeight <= 0 {
		panic("legalize: non-positive row height")
	}
	d.Rows = d.Rows[:0]
	r := d.Region
	for y := r.Ly; y+rowHeight <= r.Hy+1e-9; y += rowHeight {
		d.Rows = append(d.Rows, netlist.Row{
			Y: y, Height: rowHeight, Lx: r.Lx, Hx: r.Hx, SiteW: siteW,
		})
	}
}

// Segment is a free interval of one row between obstacles.
type Segment struct {
	Lx, Hx float64
}

// blocksRows reports whether cell c is an obstacle to standard cells:
// anything Fixed, plus macro-kind cells regardless of the Fixed flag (mLG
// runs before cell legalization).
func blocksRows(c *netlist.Cell) bool { return c.Fixed || c.Kind == netlist.Macro }

// FreeSegments computes the obstacle-free intervals of every row: every
// obstacle (blocksRows) that is not a filler blocks the rows it crosses.
// Overlapping obstacles (e.g. pads under a macro) are merged. The
// obstacles are bucketed once by the rows they cross, found through the
// rows' baselines in ascending order, and the lists are cut to size from
// one array each.
func FreeSegments(d *netlist.Design) [][]Segment {
	nr := len(d.Rows)
	// Rows by ascending baseline. A row a rectangle crosses starts below
	// the rectangle's top and less than the tallest row's height below
	// its bottom; Intersects decides within that run.
	byY := make([]int32, nr)
	maxH := 0.0
	for ri := range d.Rows {
		byY[ri] = int32(ri)
		maxH = max(maxH, d.Rows[ri].Height)
	}
	slices.SortFunc(byY, func(a, b int32) int {
		if c := cmp.Compare(d.Rows[a].Y, d.Rows[b].Y); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Count, then fill: obs[off[ri]:off[ri+1]] are row ri's obstacles in
	// cell order.
	off := make([]int32, nr+1)
	var obs, next []int32
	for fill := false; ; fill = true {
		for i := range d.Cells {
			c := &d.Cells[i]
			if !blocksRows(c) || c.Kind == netlist.Filler {
				continue
			}
			r := c.Rect()
			// The run starts a row height early: Y + Height > Ly and
			// Y > Ly - maxH round differently.
			k := sort.Search(nr, func(k int) bool { return d.Rows[byY[k]].Y > r.Ly-2*maxH })
			for ; k < nr && d.Rows[byY[k]].Y < r.Hy; k++ {
				ri := byY[k]
				row := &d.Rows[ri]
				if !r.Intersects(geom.Rect{Lx: row.Lx, Ly: row.Y, Hx: row.Hx, Hy: row.Y + row.Height}) {
					continue
				}
				if fill {
					obs[next[ri]] = int32(i)
					next[ri]++
				} else {
					off[ri+1]++
				}
			}
		}
		if fill {
			break
		}
		for ri := 0; ri < nr; ri++ {
			off[ri+1] += off[ri]
		}
		obs, next = make([]int32, off[nr]), slices.Clone(off[:nr])
	}

	type iv struct{ lo, hi float64 }
	var blocks []iv
	segs := make([][]Segment, nr)
	// A row of k obstacles has at most k+1 free intervals.
	flat := make([]Segment, 0, len(obs)+nr)
	for ri, row := range d.Rows {
		blocks = blocks[:0]
		for _, ci := range obs[off[ri]:off[ri+1]] {
			r := d.Cells[ci].Rect()
			blocks = append(blocks, iv{math.Max(r.Lx, row.Lx), math.Min(r.Hx, row.Hx)})
		}
		// Blocks of equal lo merge to the same intervals in any order.
		slices.SortFunc(blocks, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		start := len(flat)
		x := row.Lx
		for _, b := range blocks {
			if b.lo > x {
				flat = append(flat, Segment{x, b.lo})
			}
			if b.hi > x {
				x = b.hi
			}
		}
		if x < row.Hx {
			flat = append(flat, Segment{x, row.Hx})
		}
		if len(flat) > start {
			segs[ri] = flat[start:len(flat):len(flat)]
		}
	}
	return segs
}

// snap rounds x to the row's site grid.
func snap(row *netlist.Row, x float64) float64 {
	if row.SiteW <= 0 {
		return x
	}
	return row.Lx + math.Round((x-row.Lx)/row.SiteW)*row.SiteW
}

// CheckLegal verifies that the given standard cells are legally placed:
// inside the region, bottom-aligned to a row, non-overlapping with each
// other and with fixed objects/macros. It returns nil or a descriptive
// error for the first violation it finds.
//
// Overlaps are looked for band by band. The distinct row baselines cut
// the y axis into bands (the first open below, the last open above, so
// an obstacle that is not row-aligned or sticks out of the region has
// bands too); two rectangles that overlap with positive area share a
// band, so sweeping each band's rectangles in x finds every pair the
// all-pairs comparison finds. Cells and obstacles go into the bands as
// indices (count, then fill) beside two per-item keys, the lowest band
// and the left edge; their rectangles are read off the design.
func CheckLegal(d *netlist.Design, cells []int) error {
	if len(d.Rows) == 0 {
		return fmt.Errorf("legalize: design has no rows")
	}
	// The rounded row baselines in ascending order: the set a cell's
	// bottom edge must be in, and the band boundaries. Band b holds the
	// points with b of the boundaries at or below them.
	ys := make([]float64, len(d.Rows))
	for ri, r := range d.Rows {
		ys[ri] = round6(r.Y)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	// Items: the cells in the caller's order, then every obstacle. A
	// fixed cell that is also in cells is both, as it was to the
	// all-pairs loops.
	nc, n := len(cells), len(cells)
	for i := range d.Cells {
		if blocksRows(&d.Cells[i]) {
			n++
		}
	}
	obs := make([]int32, 0, n-nc)
	first := make([]int32, n) // lowest band of each item
	lx := make([]float64, n)
	for k, ci := range cells {
		c := &d.Cells[ci]
		r := c.Rect()
		if !d.Region.ContainsRect(r) {
			return fmt.Errorf("legalize: cell %d (%s) outside region: %v", ci, c.Name, r)
		}
		row, ok := slices.BinarySearch(ys, round6(r.Ly))
		if !ok {
			return fmt.Errorf("legalize: cell %d (%s) not row-aligned: y=%v", ci, c.Name, r.Ly)
		}
		// The bottom edge may sit a rounding below its row's baseline.
		if ys[row] <= r.Ly {
			row++
		}
		first[k], lx[k] = int32(row), r.Lx
	}
	for i := range d.Cells {
		if c := &d.Cells[i]; blocksRows(c) {
			r := c.Rect()
			k := nc + len(obs)
			obs = append(obs, int32(i))
			first[k] = int32(sort.Search(len(ys), func(b int) bool { return ys[b] > r.Ly }))
			lx[k] = r.Lx
		}
	}
	cellOf := func(item int32) int {
		if int(item) < nc {
			return cells[item]
		}
		return int(obs[int(item)-nc])
	}
	// Count, then fill: items[off[b]:off[b+1]] are band b's. An item has
	// area in its lowest band and goes on into the next for as long as
	// the boundary between them, ys[b], is under its top edge.
	off := make([]int32, len(ys)+2)
	var items, next []int32
	for fill := false; ; fill = true {
		for item := int32(0); int(item) < n; item++ {
			r := d.Cells[cellOf(item)].Rect()
			if r.Empty() {
				continue
			}
			for b := int(first[item]); ; b++ {
				if fill {
					items[next[b]] = item
					next[b]++
				} else {
					off[b+1]++
				}
				if b == len(ys) || ys[b] >= r.Hy {
					break
				}
			}
		}
		if fill {
			break
		}
		for b := 0; b <= len(ys); b++ {
			off[b+1] += off[b]
		}
		items, next = make([]int32, off[len(ys)+1]), slices.Clone(off[:len(ys)+1])
	}
	byLx := func(a, b int32) int {
		switch {
		case lx[a] < lx[b]:
			return -1
		case lx[a] > lx[b]:
			return 1
		}
		return int(a - b)
	}
	for b := 0; b <= len(ys); b++ {
		band := items[off[b]:off[b+1]]
		slices.SortFunc(band, byLx)
		for i, a := range band {
			ca := cellOf(a)
			ra := d.Cells[ca].Rect()
			for _, q := range band[i+1:] {
				if lx[q] >= ra.Hx {
					break
				}
				cq := cellOf(q)
				rq := d.Cells[cq].Rect()
				switch aCell, qCell := int(a) < nc, int(q) < nc; {
				case aCell && qCell:
					// Two cells that touch by less than 1e-9 in x abut.
					if rq.Lx >= ra.Hx-1e-9 {
						continue
					}
					if ov := ra.Overlap(rq); ov > 1e-6 {
						return fmt.Errorf("legalize: cells %d and %d overlap by %v", ca, cq, ov)
					}
				case aCell != qCell && ca != cq:
					if ov := ra.Overlap(rq); ov > 1e-6 {
						if qCell {
							ca, cq = cq, ca
						}
						return fmt.Errorf("legalize: cell %d overlaps fixed/macro %d by %v", ca, cq, ov)
					}
				}
			}
		}
	}
	return nil
}

// CheckMacrosLegal verifies macros are inside the region and mutually
// non-overlapping.
func CheckMacrosLegal(d *netlist.Design, macros []int) error {
	for _, mi := range macros {
		r := d.Cells[mi].Rect()
		if !d.Region.ContainsRect(r.Expand(-1e-9)) {
			return fmt.Errorf("legalize: macro %d outside region: %v", mi, r)
		}
	}
	for i := 0; i < len(macros); i++ {
		ri := d.Cells[macros[i]].Rect()
		for j := i + 1; j < len(macros); j++ {
			if ov := ri.Overlap(d.Cells[macros[j]].Rect()); ov > 1e-6 {
				return fmt.Errorf("legalize: macros %d and %d overlap by %v", macros[i], macros[j], ov)
			}
		}
	}
	return nil
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
