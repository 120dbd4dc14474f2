package detail

import (
	"cmp"
	"math"
	"slices"
)

// The dirty rule: which trials a pass has to price.
//
// Every trial (the relocation of a cell, a reorder window, a swap pair,
// an ISM window) is a pure function of a few cells' state: the positions
// of its own cells, the positions of the cells on their nets, and who
// sits next to its cells in their segment, and where. A trial that was
// priced and rejected is rejected again, bit for bit, for as long as none
// of that changes, and an accepted one changes it. So an accepted move of
// cell m marks m, every cell on m's nets, and the segment neighbours of
// the slot m left and of the slot it took; and a trial none of whose
// cells was marked since it was last priced is skipped: pricing it would
// reject it. Marking too much only prices a trial that would have been
// rejected anyway, so the rule is free to be conservative (DESIGN.md,
// "Parallel legalization and detailed placement", has the argument in
// full, with what each pass type keeps beside the marks).
//
// A mark is the number of the sub-pass it was made in (tick: the four
// pass types of pass 0 are 1 to 4, those of pass 1 are 5 to 8, the
// number of a pass type that does not run passing unused). A trial was
// last priced, or known to be rejected, in the same pass type one pass
// earlier, four ticks back; a mark of that sub-pass may have come before or after it in
// the sweep and counts as after. So a cell is dirty when its stamp is at
// least since = tick - 4: a mark lasts through the next sub-pass of every
// type, which is the two generations a move has to reach (the trials
// behind it in this pass, the trials the sweep had passed in the next),
// and the zeroed array starts pass 0 all-dirty.
//
// That is the cold start. An ECO call starts from the edit instead (an
// Edit, see seed): the layout is one an earlier cDP left with little to
// accept, so every stamp starts clean, below any since, and only what the
// edit reaches is marked at tick 0, which lasts through pass 0. A moved
// cell is marked as an accepted move at its slot is, a changed cell and
// the cells beside a vacated slot alone. Unlike the rule above, this
// start is an approximation: it assumes the earlier cDP left nothing to
// accept outside the edit's reach.
//
// Marks follow the position-visibility rule of evalCtx. A worker marks
// the cells of the region it owns as it goes: it alone reads and writes
// their stamps, as it alone writes their positions. A net with cells of
// other regions goes to the worker's log, and those cells are marked when
// every region is done (forRegions): until then those regions price
// against the snapshot, in which m has not moved. What a worker skips is
// therefore a function of the pass's starting state and its own region,
// like what it accepts, and the stamps after the barrier are the same at
// every worker count.
type dirtyState struct {
	stamp []int32
	// pass is the improvement pass under way, tick its current sub-pass
	// and since the oldest tick that still makes a cell dirty. priceAll, a
	// test-only switch, holds since at cleanStamp: every stamp passes and every
	// trial is priced, which is the full sweep the incremental passes
	// replaced.
	pass        int
	tick, since int32
	// The swap anchors of the cells taking turns, nil if none (anchorOf).
	anchors     []swapAnchor
	anchorCells []int
	// trials counts what each pass type priced and skipped over the run.
	trials [numPassKinds]struct{ priced, skipped int64 }
}

// priceAll is set by tests to compare the incremental passes with the
// full sweep.
var priceAll bool

// passKind indexes the four pass types in the order a pass runs them.
type passKind int

const (
	reorderKind passKind = iota
	swapKind
	ismKind
	relocateKind
	numPassKinds
)

var passNames = [numPassKinds]string{"reorder", "swap", "ism", "relocate"}

// cleanStamp is the stamp of a cell no mark has reached since a seeded
// start: below every since, the full sweep's included.
const cleanStamp = math.MinInt32

// initDirty starts the stamps all-dirty for a cold start, in which every
// cell takes swap turns, or from the edit's marks (see seed).
func (p *placer) initDirty(edit *Edit) {
	p.stamp = make([]int32, len(p.d.Cells))
	p.since = cleanStamp
	if edit == nil {
		p.anchors = make([]swapAnchor, len(p.d.Cells))
		return
	}
	if len(edit.Moved) > 0 {
		p.anchorCells = slices.Clone(edit.Moved)
		slices.Sort(p.anchorCells)
		p.anchorCells = slices.Compact(p.anchorCells)
		p.anchors = make([]swapAnchor, len(p.anchorCells))
	}
	p.seed(edit)
}

// anchorOf returns the index of cell ci's swap anchor, or -1 when ci
// takes no swap turn: every cell's is at its index on a cold start, and
// a seeded start keeps the moved cells', at their rank in anchorCells.
func (p *placer) anchorOf(ci int) int {
	if p.anchorCells == nil {
		return ci
	}
	if k, ok := slices.BinarySearch(p.anchorCells, ci); ok {
		return k
	}
	return -1
}

// Edit is what changed in a layout cDP refined before, for a seeded
// start (see seed). Cells outside the refined set are ignored.
type Edit struct {
	// Moved are the cells that took a new slot, inserted or evicted and
	// legalized again: each is marked as an accepted move at its slot is,
	// with its segment neighbours and every cell on its nets, and takes
	// swap turns.
	Moved []int
	// Changed are the cells whose nets changed while they kept their slot
	// (a reweighted net, a net a cell joined or left): each is marked
	// alone.
	Changed []int
	// Vacated are removed cells, at the position of the slot they left:
	// the cells either side of it in its segment are marked.
	Vacated []int
}

// seed replaces the all-dirty start with the marks an edit makes on a
// layout the passes had left with nothing to accept: every stamp is
// clean, and the edit's cells are marked at tick 0, so the marks last
// through pass 0. Only the moved cells take swap turns, and only they
// have an anchor (see initDirty); a moved cell is dirty at its first
// turn, so its anchor is written before it is read. ismPrev starts as
// the buckets' sorted order, so an unmarked ISM window is skipped from
// the first pass on.
func (p *placer) seed(edit *Edit) {
	for i := range p.stamp {
		p.stamp[i] = cleanStamp
	}
	mark := func(ci int) {
		if p.regionOf[ci] >= 0 {
			p.stamp[ci] = p.tick
		}
	}
	e := p.evals[0]
	e.allLive = true
	for _, ci := range edit.Moved {
		if si := p.segOf[ci]; si >= 0 {
			s := &p.segs[si]
			e.markMoved(s, indexOf(s.cells, ci))
		}
	}
	for _, ci := range edit.Changed {
		mark(ci)
	}
	for _, ci := range edit.Vacated {
		x, y := p.cv.PosX[ci], p.cv.PosY[ci]
		for ri, r := range p.d.Rows {
			if y < r.Y || y >= r.Y+r.Height {
				continue
			}
			for si := p.rowSegs[ri]; si < p.rowSegs[ri+1]; si++ {
				s := &p.segs[si]
				if x < s.lx || x > s.hx {
					continue
				}
				k, _ := slices.BinarySearchFunc(s.cells, x, func(c int, x float64) int {
					return cmp.Compare(p.cv.PosX[c], x)
				})
				if k > 0 {
					mark(s.cells[k-1])
				}
				if k < len(s.cells) {
					mark(s.cells[k])
				}
			}
		}
	}
	for _, b := range p.ismBuckets {
		slices.SortFunc(p.ismCells[b.lo:b.hi], p.cmpCells)
	}
	for i, ci := range p.ismCells {
		p.ismPrev[i] = int32(ci)
	}
}

// begin opens the sub-pass of the given type in the pass under way.
func (p *placer) begin(kind passKind) {
	p.tick = int32(p.pass)*int32(numPassKinds) + int32(kind) + 1
	if !priceAll {
		p.since = p.tick - int32(numPassKinds)
	}
}

// dirty reports whether a trial on cell ci has to be priced.
func (p *placer) dirty(ci int) bool { return p.stamp[ci] >= p.since }

func (p *placer) anyDirty(cells []int) bool {
	for _, ci := range cells {
		if p.dirty(ci) {
			return true
		}
	}
	return false
}

// markMoved records that the cell now at position k of s, a segment of
// the worker's region, has just moved there, or within its slot: the
// cell and the neighbours of the slot are marked, and every cell on the
// cell's nets.
func (e *evalCtx) markMoved(s *segCells, k int) {
	p := e.p
	ci := s.cells[k]
	p.stamp[ci] = p.tick
	if k > 0 {
		p.stamp[s.cells[k-1]] = p.tick
	}
	if k+1 < len(s.cells) {
		p.stamp[s.cells[k+1]] = p.tick
	}
	// A net this worker has marked in this sub-pass for this region needs
	// no second walk: the region's cells on the net have the mark and the
	// net is in the log for the others.
	region := e.region
	if e.allLive {
		region = maxRegions
	}
	key := p.tick*(maxRegions+1) + region
	for _, ni := range p.cv.CellNet[p.cv.CellNetOff[ci]:p.cv.CellNetOff[ci+1]] {
		if e.netMarked[ni] != key {
			e.netMarked[ni] = key
			e.markNet(ni)
		}
	}
}

// markNet marks the cells on net ni: at once those of the worker's own
// region, the others by logging the net once for applyMarks.
func (e *evalCtx) markNet(ni int32) {
	p := e.p
	foreign := false
	for _, cj := range p.cv.PinCell[p.cv.NetOff[ni]:p.cv.NetOff[ni+1]] {
		if cj < 0 {
			continue
		}
		switch r := p.regionOf[cj]; {
		case r < 0: // unmanaged: no trial is about it
		case e.allLive || r == e.region:
			p.stamp[cj] = p.tick
		default:
			foreign = true
		}
	}
	if foreign {
		e.marks = append(e.marks, ni)
	}
}

// applyMarks marks the cells of the nets the workers logged, now that no
// region is being priced. The order is immaterial: every mark stores the
// same value.
func (p *placer) applyMarks() {
	for _, e := range p.evals {
		for _, ni := range e.marks {
			for _, cj := range p.cv.PinCell[p.cv.NetOff[ni]:p.cv.NetOff[ni+1]] {
				if cj >= 0 && p.regionOf[cj] >= 0 {
					p.stamp[cj] = p.tick
				}
			}
		}
		e.marks = e.marks[:0]
	}
}
