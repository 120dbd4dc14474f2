package core

import (
	"math"
	"math/rand"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// fillerDims picks filler cell dimensions from the middle 80% (by area)
// of the standard cells movable visits, the ones that are neither fixed
// nor held (still, see Design.FixedOrHeld), the ePlace/FFTPL recipe:
// fillers the size of a typical cell spread whitespace without
// distorting the field. With no such cell the fillers are a hundredth
// of the region's sides.
func fillerDims(region geom.Rect, movable func(visit func(netlist.Cell))) (w, h float64) {
	type wh struct{ w, h, a float64 }
	count := 0
	movable(func(c netlist.Cell) {
		if c.Kind == netlist.StdCell {
			count++
		}
	})
	if count == 0 {
		// Macro-only design: use a small fraction of the region.
		return region.W() / 100, region.H() / 100
	}
	cells := make([]wh, 0, count)
	movable(func(c netlist.Cell) {
		if c.Kind == netlist.StdCell {
			cells = append(cells, wh{c.W, c.H, c.Area()})
		}
	})
	// Total order (area, then width, then height): an area-only sort
	// leaves equal-area cells in unspecified relative order, and when
	// such a tie straddles the 10%/90% trim boundary the averaged
	// filler dimensions — and thus every downstream position — would
	// depend on sort internals.
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].a != cells[b].a {
			return cells[a].a < cells[b].a
		}
		if cells[a].w != cells[b].w {
			return cells[a].w < cells[b].w
		}
		return cells[a].h < cells[b].h
	})
	lo, hi := len(cells)/10, len(cells)-len(cells)/10
	if hi <= lo {
		lo, hi = 0, len(cells)
	}
	var sw, sh float64
	for _, c := range cells[lo:hi] {
		sw += c.w
		sh += c.h
	}
	n := float64(hi - lo)
	return sw / n, sh / n
}

// InsertFillers populates whitespace with unconnected filler cells so
// that movable + filler area equals rhoT * free area (Sec. III), placed
// uniformly at random (seeded). It returns the indices of the new cells.
// No-op (returns nil) when the design is already at or above target
// utilization.
func InsertFillers(d *netlist.Design, seed int64) []int {
	return placeFillers(d, d.Region, insertPlan(d), seed)
}

// fillerPlan is a filler set: count fillers of w x h.
type fillerPlan struct {
	w, h  float64
	count int
}

// insertPlan is the filler set InsertFillers inserts into d as it stands.
func insertPlan(d *netlist.Design) fillerPlan {
	return cellsPlan(d, func(visit func(netlist.Cell)) {
		for i := range d.Cells {
			visit(d.Cells[i])
		}
	})
}

// cellsPlan is insertPlan for a design that will hold the cells cells
// visits, in index order, when d holds none yet (see cluster.Room): d
// gives the region and the target density.
func cellsPlan(d *netlist.Design, cells func(visit func(netlist.Cell))) fillerPlan {
	fixed, movable := 0.0, 0.0
	cells(func(c netlist.Cell) {
		if c.Fixed {
			fixed += c.Rect().Intersect(d.Region).Area()
		} else if c.Kind != netlist.Filler {
			movable += c.Area()
		}
	})
	free := d.Region.Area() - fixed
	return planFillers(d.Region, d.TargetDensity*free-movable, func(visit func(netlist.Cell)) {
		cells(func(c netlist.Cell) {
			if !c.Fixed {
				visit(c)
			}
		})
	})
}

// planFillers sizes the fillers that fit in area want, after the
// standard cells movable visits (see fillerDims); the plan is empty when
// none fit.
func planFillers(region geom.Rect, want float64, movable func(visit func(netlist.Cell))) fillerPlan {
	if want <= 0 {
		return fillerPlan{}
	}
	fw, fh := fillerDims(region, movable)
	if fw <= 0 || fh <= 0 {
		return fillerPlan{}
	}
	return fillerPlan{w: fw, h: fh, count: max(0, int(math.Floor(want/(fw*fh))))}
}

// unheld visits d's cells that still (see Design.FixedOrHeld) leaves
// out, in index order.
func unheld(d *netlist.Design, still []bool) func(visit func(netlist.Cell)) {
	return func(visit func(netlist.Cell)) {
		for i, s := range still {
			if !s {
				visit(d.Cells[i])
			}
		}
	}
}

// placeFillers appends plan's fillers, placed uniformly at random
// (seeded) inside r, and returns their indices. The design's cells grow
// once, before the loop, not one filler at a time.
func placeFillers(d *netlist.Design, r geom.Rect, plan fillerPlan, seed int64) []int {
	if plan.count <= 0 {
		return nil
	}
	fw, fh := plan.w, plan.h
	rng := rand.New(rand.NewSource(seed))
	d.Reserve(plan.count, 0, 0)
	idx := make([]int, 0, plan.count)
	for k := 0; k < plan.count; k++ {
		x := r.Lx + fw/2 + rng.Float64()*(r.W()-fw)
		y := r.Ly + fh/2 + rng.Float64()*(r.H()-fh)
		idx = append(idx, d.AddCell(netlist.Cell{
			W: fw, H: fh, X: x, Y: y, Kind: netlist.Filler,
		}))
	}
	return idx
}
