package detail

import (
	"math"
	"sort"
)

// evalCtx is one worker's evaluation context: region-aware position
// reads, the trial evaluator every pass prices its moves with, and every
// scratch buffer the inner loops need, so a steady-state improvement
// pass allocates nothing.
//
// Position visibility rule (the heart of the determinism argument, see
// DESIGN.md "Parallel legalization and detailed placement"): positions
// live in the view's PosX/PosY for the whole of Place. During a
// region-parallel pass each worker owns the cells of its current region:
// it alone writes their entries, and only when it accepts a move. It
// reads those live, reads every other region's managed cells from the
// snapshot taken at pass start, and reads unmanaged cells (fixed
// objects, macros, pads) live — nobody moves those during cDP. Trial
// positions never touch either array: they sit in the context's tx/ty
// until a move is accepted. A region's moves are therefore a pure
// function of (snapshot, own region's state), independent of how
// regions are scheduled onto workers.
type evalCtx struct {
	p *placer
	// region is the region this worker currently owns; allLive
	// short-circuits the snapshot redirect for the serial phases (ISM
	// propose/commit run without concurrent mutation, so live reads are
	// both safe and exact).
	region  int32
	allLive bool

	// The current trial (see begin): its cells by slot, their candidate
	// positions, its nets in first-encounter order and the pins of those
	// nets that sit on a trial cell.
	tcells []int32
	one    [1]int
	tx, ty []float64
	tnets  []trialNet
	own    []ownPin
	// The swap pass's cache over the segment it is sweeping (see half
	// and beginPair): halves[k] is the span of hnets that holds the
	// one-cell trial of the cell at position k.
	halves []span
	hnets  []trialNet

	// Epoch-stamped membership test over nets.
	netSeen []int64
	epoch   int64

	// optimalX scratch.
	xs []float64

	// marks logs the nets whose cells in regions this worker does not
	// own are to be marked dirty at the sub-pass's barrier; netMarked
	// says for which sub-pass and region the worker last marked each
	// net (dirty.go).
	marks     []int32
	netMarked []int32

	// Pass scratch: segment iteration order, reorder windows.
	order  []int
	win    []int
	bestXs []float64

	// ISM scratch.
	setBuf []int
	slotX  []float64
	slotY  []float64
	matrix []float64
	hung   hungScratch
}

// trialNet is what one walk of a net leaves behind for a trial: the
// bounding box of the pins that sit on no trial cell, fixed for as long
// as the trial lasts, and the range of e.own holding the pins that do.
type trialNet struct {
	w                      float64
	minX, maxX, minY, maxY float64
	ni                     int32
	own, ownEnd            int32
	// slot is added to the slots of the net's own pins: a half, walked
	// with its cell alone in slot 0, serves either cell of a pair.
	slot int32
}

// span is a half-open range of a flat array: of hnets for a half (lo < 0
// when it is not built), of ismCells for an ISM bucket or window.
type span struct{ lo, hi int32 }

// ownPin is a pin on the trial cell in the given slot.
type ownPin struct {
	slot   int32
	ox, oy float64
}

// maxTrialCells is the most cells one trial can hold.
const maxTrialCells = 16

func newEvalCtx(p *placer) *evalCtx {
	e := &evalCtx{
		p: p, netSeen: make([]int64, len(p.d.Nets)), netMarked: make([]int32, len(p.d.Nets)),
		tx: make([]float64, maxTrialCells), ty: make([]float64, maxTrialCells),
	}
	if len(p.regions) > 1 {
		// A pass logs a net once per region it marks it for: sized for
		// the common case up front, not grown through it.
		e.marks = make([]int32, 0, len(p.d.Nets))
	}
	return e
}

// at returns the position of a cell outside the trial under the
// live/frozen split described on evalCtx.
func (e *evalCtx) at(ci int32) (float64, float64) {
	p := e.p
	if !e.allLive {
		if r := p.regionOf[ci]; r >= 0 && r != e.region {
			return p.snapX[ci], p.snapY[ci]
		}
	}
	return p.cv.PosX[ci], p.cv.PosY[ci]
}

// begin opens a trial over the given cells (slot i holds cells[i]): one
// walk of their distinct nets, in first-encounter (pin) order. The
// caller then writes candidate positions into tx/ty[:len(cells)] and
// prices each candidate layout with cost.
func (e *evalCtx) begin(cells []int) {
	e.tcells = e.tcells[:0]
	for _, ci := range cells {
		e.tcells = append(e.tcells, int32(ci))
	}
	e.own = e.own[:0]
	e.tnets = e.tnets[:0]
	e.bumpEpoch()
	for _, ci := range cells {
		e.tnets = e.walkCell(ci, e.tnets)
	}
}

// walkCell appends to dst the records of cell ci's nets that the
// current epoch has not seen, in pin order.
func (e *evalCtx) walkCell(ci int, dst []trialNet) []trialNet {
	cv := e.p.cv
	for _, ni := range cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]] {
		if e.netSeen[ni] != e.epoch {
			e.netSeen[ni] = e.epoch
			dst = e.walk(ni, dst)
		}
	}
	return dst
}

// begin1 opens a one-cell trial with the cell at its live position.
func (e *evalCtx) begin1(ci int) {
	e.one[0] = ci
	e.begin(e.one[:])
	e.tx[0], e.ty[0] = e.p.cv.PosX[ci], e.p.cv.PosY[ci]
}

// walk appends net ni's record to dst: every pin is visited once, the
// ones on a trial cell go to e.own, the rest into the box. A net of
// fewer than two pins has no length wherever its pin sits and gets no
// record. Floating-point note: a pin's x is Ox + position, as in
// netlist.NetHPWL's position + Ox; IEEE addition is commutative.
func (e *evalCtx) walk(ni int32, dst []trialNet) []trialNet {
	cv := e.p.cv
	lo, hi := cv.NetOff[ni], cv.NetOff[ni+1]
	if hi-lo < 2 {
		return dst
	}
	own := int32(len(e.own))
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
pins:
	for k := lo; k < hi; k++ {
		x, y := cv.PinOx[k], cv.PinOy[k]
		if ci := cv.PinCell[k]; ci >= 0 {
			for slot, tc := range e.tcells {
				if tc == ci {
					e.own = append(e.own, ownPin{int32(slot), x, y})
					continue pins
				}
			}
			cx, cy := e.at(ci)
			x += cx
			y += cy
		}
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return append(dst, trialNet{
		w: cv.NetW[ni], minX: minX, maxX: maxX, minY: minY, maxY: maxY,
		ni: ni, own: own, ownEnd: int32(len(e.own)),
	})
}

// cost is the weighted HPWL of the trial's nets with the trial cells at
// tx/ty: each net's cached box extended by its own pins, summed in
// first-encounter order. On finite coordinates builtin min/max find the
// extremes a compare-and-assign walk of all the pins finds, up to the
// sign of a zero, and a net's term of either zero sign leaves the same
// sum (it starts at +0 and can never become -0), so cost returns the
// bits of the full walk (DESIGN.md has the argument in full).
func (e *evalCtx) cost() float64 {
	s := 0.0
	for i := range e.tnets {
		n := &e.tnets[i]
		minX, maxX, minY, maxY := n.minX, n.maxX, n.minY, n.maxY
		for _, q := range e.own[n.own:n.ownEnd] {
			x, y := q.ox+e.tx[q.slot+n.slot], q.oy+e.ty[q.slot+n.slot]
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
		}
		// The conversion rounds the product before the add, so an
		// architecture with fused multiply-add sums the same terms.
		s += float64(n.w * ((maxX - minX) + (maxY - minY)))
	}
	return s
}

// dropHalves leaves the n cells of the segment the swap pass is sweeping
// without a half: on entering it, and whenever one of its cells moved,
// since any box may have counted that cell's pins.
func (e *evalCtx) dropHalves(n int) {
	e.halves = e.halves[:0]
	for k := 0; k < n; k++ {
		e.halves = append(e.halves, span{lo: -1})
	}
	e.hnets, e.own = e.hnets[:0], e.own[:0]
}

// half returns the one-cell trial of the cell at position k of the
// segment being swept, s: its nets walked with the cell alone off the
// boxes, the first time any pair asks for it. A half holds while no cell
// of the segment moves: the region's other segments are not being
// swept and the other regions are read through the snapshot.
func (e *evalCtx) half(s *segCells, k int) span {
	h := &e.halves[k]
	if h.lo < 0 {
		e.tcells = append(e.tcells[:0], int32(s.cells[k]))
		e.bumpEpoch()
		h.lo = int32(len(e.hnets))
		e.hnets = e.walkCell(s.cells[k], e.hnets)
		h.hi = int32(len(e.hnets))
	}
	return *h
}

// beginPair opens the trial over the cells at positions ka < kb of s,
// in slots 0 and 1, by splicing their halves in the order begin over
// the two cells would meet the nets. A net both cells are on is walked
// afresh with both off the box, because each half's box counted the
// other cell's pins where they stood.
func (e *evalCtx) beginPair(s *segCells, ka, kb int) {
	ha, hb := e.half(s, ka), e.half(s, kb)
	e.tcells = append(e.tcells[:0], int32(s.cells[ka]), int32(s.cells[kb]))
	e.bumpEpoch()
	for _, n := range e.hnets[hb.lo:hb.hi] {
		e.netSeen[n.ni] = e.epoch
	}
	e.tnets = e.tnets[:0]
	for _, n := range e.hnets[ha.lo:ha.hi] {
		if e.netSeen[n.ni] == e.epoch {
			e.netSeen[n.ni] = 0 // so that the loop below passes over it
			e.tnets = e.walk(n.ni, e.tnets)
		} else {
			e.tnets = append(e.tnets, n)
		}
	}
	for _, n := range e.hnets[hb.lo:hb.hi] {
		if e.netSeen[n.ni] == e.epoch {
			n.slot = 1
			e.tnets = append(e.tnets, n)
		}
	}
}

// bumpEpoch advances the membership epoch, resetting the stamp array on
// the (practically unreachable) wraparound.
func (e *evalCtx) bumpEpoch() {
	e.epoch++
	if e.epoch == math.MaxInt64 {
		for i := range e.netSeen {
			e.netSeen[i] = 0
		}
		e.epoch = 1
	}
}

// optimalX returns the x median of the other pins of the cell's nets:
// the center of its optimal region, under the context's position rule.
func (e *evalCtx) optimalX(ci int) float64 {
	cv := e.p.cv
	e.xs = e.xs[:0]
	for _, ni := range cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]] {
		for q := cv.NetOff[ni]; q < cv.NetOff[ni+1]; q++ {
			cj := cv.PinCell[q]
			if int(cj) == ci {
				continue
			}
			x := cv.PinOx[q]
			if cj >= 0 {
				cx, _ := e.at(cj)
				x += cx
			}
			e.xs = append(e.xs, x)
		}
	}
	if len(e.xs) == 0 {
		return cv.PosX[ci]
	}
	sort.Float64s(e.xs)
	return e.xs[len(e.xs)/2]
}
