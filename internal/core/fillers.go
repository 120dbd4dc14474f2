package core

import (
	"math"
	"math/rand"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// fillerDims picks filler cell dimensions from the middle 80% (by area)
// of d's standard cells that still leaves out (see
// Compiled.FixedOrHeldInto; nil leaves out the fixed ones), the
// ePlace/FFTPL recipe: fillers the size of a typical cell spread
// whitespace without distorting the field. With no such cell the fillers
// are a hundredth of the region's sides.
func fillerDims(d *netlist.Design, still []bool) (w, h float64) {
	type wh struct{ w, h, a float64 }
	free := func(i int) bool {
		if still == nil {
			return !d.Cells[i].Fixed
		}
		return !still[i]
	}
	count := 0
	for i := range d.Cells {
		if free(i) && d.Cells[i].Kind == netlist.StdCell {
			count++
		}
	}
	if count == 0 {
		// Macro-only design: use a small fraction of the region.
		return d.Region.W() / 100, d.Region.H() / 100
	}
	cells := make([]wh, 0, count)
	for i := range d.Cells {
		if c := &d.Cells[i]; free(i) && c.Kind == netlist.StdCell {
			cells = append(cells, wh{c.W, c.H, c.Area()})
		}
	}
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

// InsertFillers populates the whitespace of the design cv was compiled
// from with fillers in the view, so that movable + filler area equals
// rhoT * free area (Sec. III), placed uniformly at random (seeded). It
// returns the fillers' view indices, nil when the design is already at or
// above target utilization. The design itself never holds a filler.
func InsertFillers(cv *netlist.Compiled, seed int64) []int {
	d := cv.Design()
	return placeFillers(cv, d.Region, insertPlan(d), seed)
}

// fillerPlan is a filler set: count fillers of w x h.
type fillerPlan struct {
	w, h  float64
	count int
}

// insertPlan is the filler set InsertFillers inserts for d as it stands.
func insertPlan(d *netlist.Design) fillerPlan {
	fixed, movable := 0.0, 0.0
	for i := range d.Cells {
		if c := &d.Cells[i]; c.Fixed {
			fixed += c.Rect().Intersect(d.Region).Area()
		} else {
			movable += c.Area()
		}
	}
	return planFillers(d, d.TargetDensity*(d.Region.Area()-fixed)-movable, nil)
}

// planFillers sizes the fillers that fit in area want, after d's
// standard cells that still leaves out (see fillerDims); the plan is
// empty when none fit.
func planFillers(d *netlist.Design, want float64, still []bool) fillerPlan {
	if want <= 0 {
		return fillerPlan{}
	}
	fw, fh := fillerDims(d, still)
	if fw <= 0 || fh <= 0 {
		return fillerPlan{}
	}
	return fillerPlan{w: fw, h: fh, count: max(0, int(math.Floor(want/(fw*fh))))}
}

// placeFillers appends plan's fillers to the view cv, placed uniformly at
// random (seeded) inside r, and returns their indices.
func placeFillers(cv *netlist.Compiled, r geom.Rect, plan fillerPlan, seed int64) []int {
	if plan.count <= 0 {
		return nil
	}
	fw, fh := plan.w, plan.h
	rng := rand.New(rand.NewSource(seed))
	first := cv.AddFillers(plan.count, fw, fh)
	idx := make([]int, plan.count)
	for k := range idx {
		ci := first + k
		cv.PosX[ci] = r.Lx + fw/2 + rng.Float64()*(r.W()-fw)
		cv.PosY[ci] = r.Ly + fh/2 + rng.Float64()*(r.H()-fh)
		idx[k] = ci
	}
	return idx
}
