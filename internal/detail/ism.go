package detail

import (
	"math"
	"slices"
	"sort"

	"eplace/internal/parallel"
)

// Independent-set matching (the NTUplace3 cDP technique): groups of
// equal-width cells that share no nets have interchangeable slots, so
// their joint reassignment is an assignment problem solved exactly by
// the Hungarian method.
//
// The pass is two-phase so it parallelizes without giving up bitwise
// determinism. Phase 1 (propose) builds the task list — width buckets,
// sliding windows — from the frozen pass-start state and solves every
// task's matching in parallel against that state without mutating it.
// Phase 2 (commit) walks the proposals in task order on one goroutine:
// a proposal whose cells all still sit bitwise-exactly on their
// proposed slots is re-priced against the live layout (earlier commits
// may have moved shared-net neighbors) and applied only if it still
// improves; any proposal invalidated by an earlier commit is dropped.
// The task list, each proposal, and the commit order are all pure
// functions of the pass-start state, so the outcome is identical at
// every worker count.

// ismProposal is one task's solved matching, produced in parallel and
// consumed serially. Buffers are reused across passes.
type ismProposal struct {
	ok bool
	// skipped: the window has the members it had in the last pass and
	// none of them is dirty, so it was known to propose nothing.
	skipped bool
	set     []int     // independent subset, candidate order
	slotX   []float64 // slot j = set[j]'s position at propose time
	slotY   []float64
	assign  []int // set[i] moves to slot assign[i]
}

// ismWindow is the sliding-window size over each width bucket; windows
// advance by half so neighboring windows overlap. ismSetSize bounds the
// independent set drawn from a window: the assignment solve is cubic in
// it and commitISM's slot bookkeeping is sized by it.
const (
	ismWindow  = 12
	ismSetSize = 6
)

// buildISMTasks gathers movable cells by footprint and cuts sliding
// windows, once per Place: sizes never change in cDP, so neither do the
// buckets' members nor the window boundaries, and ismPass only re-sorts
// each bucket under the windows. Cells are interchangeable only when
// both width AND height match: slots carry a y position, and parking a
// double-height cell on a single-height cell's slot leaves it
// straddling a row boundary (bucketing by width alone did exactly that
// once edits introduced same-width cells of a different height).
// Determinism contract: buckets are processed in ascending (width,
// height) order (never Go's randomized map order) and each bucket is
// sorted by (x, cell index) — a strict total order — so the task list
// is a pure function of the pass-start positions. The footprints are
// counted first and the buckets cut to size from one array.
func (p *placer) buildISMTasks() {
	d := p.d
	type dim struct{ w, h float64 }
	size := map[dim]int32{}
	for si := range p.segs {
		for _, ci := range p.segs[si].cells {
			size[dim{d.Cells[ci].W, d.Cells[ci].H}]++
		}
	}
	dims := make([]dim, 0, len(size))
	for k := range size {
		dims = append(dims, k)
	}
	sort.Slice(dims, func(a, b int) bool {
		if dims[a].w != dims[b].w {
			return dims[a].w < dims[b].w
		}
		return dims[a].h < dims[b].h
	})
	// From here on size holds each footprint's fill cursor, -1 for the
	// footprints of a single cell, which has nobody to trade slots with.
	off, tasks := int32(0), 0
	for _, k := range dims {
		n := size[k]
		if n < 2 {
			size[k] = -1
			continue
		}
		p.ismBuckets = append(p.ismBuckets, span{off, off + n})
		size[k] = off
		off += n
		tasks += windowsOver(int(n))
	}
	p.ismCells = make([]int, off)
	p.ismPrev = make([]int32, off)
	for si := range p.segs {
		for _, ci := range p.segs[si].cells {
			k := dim{d.Cells[ci].W, d.Cells[ci].H}
			if at := size[k]; at >= 0 {
				p.ismCells[at] = ci
				size[k] = at + 1
			}
		}
	}
	p.ismTasks = make([]span, 0, tasks)
	for _, b := range p.ismBuckets {
		for start := b.lo; ; start += ismWindow / 2 {
			end := min(start+ismWindow, b.hi)
			p.ismTasks = append(p.ismTasks, span{start, end})
			if end == b.hi {
				break
			}
		}
	}
	p.ismProps = make([]ismProposal, len(p.ismTasks))
}

// windowsOver is the number of sliding windows over a bucket of n >= 2
// cells.
func windowsOver(n int) int {
	if n <= ismWindow {
		return 1
	}
	return 1 + (n-ismWindow+ismWindow/2-1)/(ismWindow/2)
}

// repairOrder restores a segment's order by insertion after a commit
// moved a few of its cells: linear in the segment, no allocation.
func (p *placer) repairOrder(cells []int) {
	for i := 1; i < len(cells); i++ {
		ci, j := cells[i], i
		for ; j > 0 && p.cmpCells(ci, cells[j-1]) < 0; j-- {
			cells[j] = cells[j-1]
		}
		cells[j] = ci
	}
}

// ismPass runs the two-phase propose/commit scheme described above.
func (p *placer) ismPass(res *Result) int {
	p.begin(ismKind)
	for _, b := range p.ismBuckets {
		slices.SortFunc(p.ismCells[b.lo:b.hi], p.cmpCells)
	}
	tasks, props := p.ismTasks, p.ismProps
	// Phase 1: parallel propose. Read-only against the live layout and
	// the stamps (nothing moves during this phase), disjoint writes per
	// task slot. A window that proposed and is clean was applied or
	// dropped by the commit, which marks: a clean window with the members
	// it had proposed nothing, and proposes nothing now.
	parallel.For(p.workers, len(tasks), func(w, lo, hi int) {
		e := p.evals[w]
		e.allLive = true
		for t := lo; t < hi; t++ {
			prop := &props[t]
			window := p.ismCells[tasks[t].lo:tasks[t].hi]
			prop.skipped = !p.anyDirty(window) && sameCells(window, p.ismPrev[tasks[t].lo:tasks[t].hi])
			if prop.skipped {
				prop.ok = false
				continue
			}
			e.proposeISM(window, prop)
		}
	})
	for i, ci := range p.ismCells {
		p.ismPrev[i] = int32(ci)
	}
	// Phase 2: total-order serial commit.
	improved := 0
	for t := range props {
		if props[t].skipped {
			p.trials[ismKind].skipped++
		} else {
			p.trials[ismKind].priced++
		}
		if p.commitISM(&props[t]) {
			improved++
			res.ISMRounds++
		}
	}
	return improved
}

func sameCells(cells []int, prev []int32) bool {
	for i, ci := range cells {
		if prev[i] != int32(ci) {
			return false
		}
	}
	return true
}

// independentSubset greedily picks up to ismSetSize cells sharing no
// nets, following the caller's (sorted) candidate order. The result lives
// in e.setBuf until the next independentSubset call on this context.
func (e *evalCtx) independentSubset(candidates []int) []int {
	e.bumpEpoch()
	p := e.p
	e.setBuf = e.setBuf[:0]
	for _, ci := range candidates {
		nets := p.cv.CellNet[p.cv.CellNetOff[ci]:p.cv.CellNetOff[ci+1]]
		ok := true
		for _, ni := range nets {
			if e.netSeen[ni] == e.epoch {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		e.setBuf = append(e.setBuf, ci)
		for _, ni := range nets {
			e.netSeen[ni] = e.epoch
		}
		if len(e.setBuf) >= ismSetSize {
			break
		}
	}
	return e.setBuf
}

// proposeISM selects the window's independent subset, prices every
// cell/slot pair against the pass-start state, and records the optimal
// assignment when it improves. No layout mutation: each cell is a
// one-cell trial priced at every slot.
func (e *evalCtx) proposeISM(window []int, prop *ismProposal) {
	prop.ok = false
	p := e.p
	set := e.independentSubset(window)
	n := len(set)
	if n < 2 {
		return
	}
	e.slotX = e.slotX[:0]
	e.slotY = e.slotY[:0]
	for _, ci := range set {
		e.slotX = append(e.slotX, p.cv.PosX[ci])
		e.slotY = append(e.slotY, p.cv.PosY[ci])
	}
	if cap(e.matrix) < n*n {
		e.matrix = make([]float64, n*n)
	}
	cost := e.matrix[:n*n]
	// Cost matrix: HPWL of cell i's nets with the cell at slot j. The
	// set's independence makes per-cell costs separable and exact.
	base := 0.0
	for i, ci := range set {
		e.begin1(ci)
		base += e.cost()
		for j := 0; j < n; j++ {
			e.tx[0], e.ty[0] = e.slotX[j], e.slotY[j]
			cost[i*n+j] = e.cost()
		}
	}
	assign := e.hung.solve(n, cost)
	total := 0.0
	for i, j := range assign {
		total += cost[i*n+j]
	}
	if total >= base-1e-9 {
		return
	}
	prop.set = append(prop.set[:0], set...)
	prop.slotX = append(prop.slotX[:0], e.slotX...)
	prop.slotY = append(prop.slotY[:0], e.slotY...)
	prop.assign = append(prop.assign[:0], assign...)
	prop.ok = true
}

// commitISM validates a proposal against the live layout and applies
// it. Runs serially in task order.
func (p *placer) commitISM(prop *ismProposal) bool {
	if !prop.ok {
		return false
	}
	e := p.evals[0]
	e.allLive = true
	// Drop the proposal if any member moved since propose time: an
	// earlier commit (overlapping window) won that cell.
	for i, ci := range prop.set {
		if p.cv.PosX[ci] != prop.slotX[i] || p.cv.PosY[ci] != prop.slotY[i] {
			return false
		}
	}
	// Re-price on the live layout: earlier commits may have moved
	// shared-net neighbors. Per-cell evaluation is exact because the
	// set's nets are disjoint (independence).
	base, total := 0.0, 0.0
	for i, ci := range prop.set {
		e.begin1(ci)
		base += e.cost()
		j := prop.assign[i]
		e.tx[0], e.ty[0] = prop.slotX[j], prop.slotY[j]
		total += e.cost()
	}
	if total >= base-1e-9 {
		return false
	}
	// Apply. Slot j is exactly cell set[j]'s position and its place in
	// set[j]'s segment list, and the assignment is a permutation of the
	// slots: the cell that takes slot j takes that place in the list, so
	// no list changes length. The neighbours of every slot that changes
	// hands are marked with the mover (a taken slot is a left one).
	var origSeg [ismSetSize]int32
	var place [ismSetSize]int
	for k, ci := range prop.set {
		origSeg[k] = p.segOf[ci]
		place[k] = indexOf(p.segs[origSeg[k]].cells, ci)
	}
	for i, j := range prop.assign {
		if j == i {
			continue
		}
		ci, seg := prop.set[i], origSeg[j]
		p.cv.PosX[ci], p.cv.PosY[ci] = prop.slotX[j], prop.slotY[j]
		p.segs[seg].cells[place[j]] = ci
		p.segOf[ci] = seg
		p.regionOf[ci] = p.segRegion[seg]
		e.markMoved(&p.segs[seg], place[j])
	}
	// A sorted list has one arrangement, so repairing the lists in any
	// order, some of them twice, has exactly one possible outcome.
	for k := range prop.set {
		p.repairOrder(p.segs[origSeg[k]].cells)
	}
	return true
}

// hungScratch holds the assignment solver's working arrays so repeated
// solves allocate nothing once warm.
type hungScratch struct {
	u, v, minv []float64
	pcol, way  []int
	used       []bool
	assign     []int
}

func (s *hungScratch) grow(n int) {
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
		s.v = make([]float64, n+1)
		s.minv = make([]float64, n+1)
		s.pcol = make([]int, n+1)
		s.way = make([]int, n+1)
		s.used = make([]bool, n+1)
		s.assign = make([]int, n)
	}
	s.u = s.u[:n+1]
	s.v = s.v[:n+1]
	s.minv = s.minv[:n+1]
	s.pcol = s.pcol[:n+1]
	s.way = s.way[:n+1]
	s.used = s.used[:n+1]
	s.assign = s.assign[:n]
	for j := 0; j <= n; j++ {
		s.u[j] = 0
		s.v[j] = 0
		s.pcol[j] = 0
		s.way[j] = 0
	}
}

// solve finds the minimal-cost row->column assignment of the n x n
// matrix cost (row-major, cost[i*n+j]) using the Jonker-style O(n^3)
// shortest-augmenting-path formulation (1-indexed internally). The
// returned slice is scratch, valid until the next solve.
func (s *hungScratch) solve(n int, cost []float64) []int {
	s.grow(n)
	u, v, pcol, way := s.u, s.v, s.pcol, s.way
	for i := 1; i <= n; i++ {
		pcol[0] = i
		j0 := 0
		minv, used := s.minv, s.used
		for j := 0; j <= n; j++ {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := pcol[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[(i0-1)*n+(j-1)] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[pcol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if pcol[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			pcol[j0] = pcol[j1]
			j0 = j1
		}
	}
	for j := 1; j <= n; j++ {
		if pcol[j] > 0 {
			s.assign[pcol[j]-1] = j - 1
		}
	}
	return s.assign
}
