// Package detail implements the discrete refinement of the cDP stage
// (the paper invokes NTUplace3's detail placer [4]; this is a
// functional reimplementation): legality-preserving global swaps toward
// each cell's optimal region, local reordering windows, relocation into
// whitespace, and independent-set matching. Cells are managed per
// obstacle-free row segment (from legalize.FreeSegments), so wide
// macros and pads can never be stepped on. Every operation keeps the
// layout legal and is accepted only when it shortens HPWL.
//
// The improvement passes are region-parallel: segments are grouped into
// contiguous regions with worker-count-independent boundaries, each
// region's moves are evaluated against a frozen snapshot of the other
// regions, and the cross-region ISM pass runs as parallel propose +
// total-order serial commit. Results are bitwise-identical at every
// worker count (see DESIGN.md, "Parallel legalization and detailed
// placement").
//
// The passes are incremental: after the first sweep a trial is priced
// only when one of its inputs changed since it was last priced and
// rejected (dirty.go has the rule), so a pass costs what moved, not the
// design.
package detail

import (
	"fmt"
	"math"
	"slices"
	"time"

	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/telemetry"
)

// Options tunes detail placement.
type Options struct {
	// Passes bounds the improvement sweeps (default 3).
	Passes int
	// SwapCandidates bounds how many neighbors are tried per global
	// swap (default 8).
	SwapCandidates int
	// DisableISM turns off independent-set matching.
	DisableISM bool
	// Workers is the worker count for the region-parallel improvement
	// passes: 0 uses all cores, 1 runs on the calling goroutine.
	// Results are bitwise-identical at every setting.
	Workers int
	// Telemetry, when non-nil, receives one Sample per improvement pass
	// (stage "cDP") plus swap/reorder/relocate/ISM counters, the trials
	// each pass type priced and skipped (cDP/<pass>_priced,
	// cDP/<pass>_skipped) and per-pass-type kernel spans (cDP/reorder,
	// cDP/swap, cDP/ism, cDP/relocate).
	Telemetry *telemetry.Recorder
	// Golden, when non-nil, absorbs every pass's cell positions and
	// HPWL into the "cDP" determinism digest (see telemetry.GoldenTrace).
	Golden *telemetry.GoldenTrace
}

func (o *Options) defaults() {
	if o.Passes <= 0 {
		o.Passes = 3
	}
	if o.SwapCandidates <= 0 {
		o.SwapCandidates = 8
	}
}

// Result reports a detail placement run.
type Result struct {
	Passes     int
	Swaps      int
	Reorders   int
	Relocates  int
	ISMRounds  int
	HPWLBefore float64
	HPWLAfter  float64
}

// segCells is one obstacle-free row interval and its cells in x order.
type segCells struct {
	lx, hx float64
	cells  []int
}

// segRange is a contiguous run of segment indices forming one region.
type segRange struct{ lo, hi int }

// passCount accumulates one region's accepted moves and the trials it
// priced and skipped; reduced over regions in fixed (region-index) order
// after each pass.
type passCount struct{ improved, ops, priced, skipped int }

// placer holds segment-ordered occupancy over legalized cells plus the
// region partition and worker contexts for the parallel passes.
type placer struct {
	d   *netlist.Design
	opt Options
	// segs are the free segments in row-major order; their cell lists are
	// cut from one array, which holds because no pass changes how many
	// cells a segment has (ISM permutes cells over slots).
	segs []segCells
	// segOf maps cell index -> segment index (-1 for unmanaged cells:
	// macros, pads, fixed objects). regionOf maps cell -> region the
	// same way; segRegion maps segment -> region.
	segOf     []int32
	regionOf  []int32
	segRegion []int32
	regions   []segRange
	workers   int
	evals     []*evalCtx
	// cv is the design's compiled view, synced on entry: the passes read
	// positions (PosX/PosY), widths (CellW), the net -> pin CSR and the
	// cell -> net index from it and never load a Cell or Pin struct. A
	// managed cell's position is written only by the worker that owns its
	// region (or by the serial ISM commit); writeBack copies the managed
	// entries to the Cell structs after each pass.
	cv *netlist.Compiled
	// snapX/snapY freeze managed-cell positions at the start of each
	// region-parallel pass; other regions are read through them.
	snapX, snapY []float64
	counts       []passCount
	// ismCells holds the managed cells grouped by (width, height);
	// ismBuckets are the groups, ismTasks the sliding windows over them
	// (both as ranges of ismCells) and ismProps one proposal per window,
	// all cut once per Place. ismPrev is ismCells as the last ISM pass
	// left it: a window has the members it had then when the two agree
	// over its range.
	ismCells   []int
	ismPrev    []int32
	ismBuckets []span
	ismTasks   []span
	ismProps   []ismProposal
	dirtyState
	// posBuf is the golden digest's position vector.
	posBuf []float64
}

// Place refines the legalized standard cells in cells. The layout must
// be legal on entry (legalize.CheckLegal passes); it stays legal.
func Place(d *netlist.Design, cells []int, opt Options) (Result, error) {
	return PlaceCompiled(d.Compile(), cells, opt)
}

// PlaceCompiled is Place over a caller-owned view of the design, which
// it syncs from the Cell structs on entry; the structs hold the refined
// layout when it returns.
func PlaceCompiled(cv *netlist.Compiled, cells []int, opt Options) (Result, error) {
	opt.defaults()
	p, err := newPlacer(cv, cells, opt)
	// The view is synced by now: its HPWL is d.HPWL() bit for bit without
	// the walk through the Net, Pin and Cell structs.
	res := Result{HPWLBefore: cv.HPWL()}
	if err != nil {
		return res, err
	}
	rec := opt.Telemetry
	for pass := 0; pass < opt.Passes; pass++ {
		res.Passes = pass + 1
		p.pass = pass
		improved := 0
		t := time.Now()
		improved += p.reorderPass(&res)
		rec.AddSpanTime("cDP", "reorder", time.Since(t))
		t = time.Now()
		improved += p.swapPass(&res)
		rec.AddSpanTime("cDP", "swap", time.Since(t))
		if !opt.DisableISM {
			t = time.Now()
			improved += p.ismPass(&res)
			rec.AddSpanTime("cDP", "ism", time.Since(t))
		}
		t = time.Now()
		improved += p.relocatePass(&res)
		rec.AddSpanTime("cDP", "relocate", time.Since(t))
		p.writeBack()
		res.HPWLAfter = cv.HPWL()
		if opt.Golden != nil {
			p.d.PositionsInto(cells, p.posBuf)
			opt.Golden.Absorb("cDP", pass, p.posBuf, res.HPWLAfter, 0)
		}
		if rec.Active() {
			rec.Sample(telemetry.Sample{
				Stage: "cDP", Iteration: pass, HPWL: res.HPWLAfter,
			})
		}
		if improved == 0 {
			break
		}
	}
	rec.Count("cDP/swaps", int64(res.Swaps))
	rec.Count("cDP/reorders", int64(res.Reorders))
	rec.Count("cDP/relocates", int64(res.Relocates))
	rec.Count("cDP/ism_rounds", int64(res.ISMRounds))
	for k, n := range p.trials {
		rec.Count("cDP/"+passNames[k]+"_priced", n.priced)
		rec.Count("cDP/"+passNames[k]+"_skipped", n.skipped)
	}
	return res, nil
}

// newPlacer syncs the view and builds the segment occupancy, regions and
// ISM windows for one Place call.
func newPlacer(cv *netlist.Compiled, cells []int, opt Options) (*placer, error) {
	cv.Sync()
	p := &placer{d: cv.Design(), cv: cv, opt: opt, workers: parallel.Count(opt.Workers)}
	if err := p.buildSegments(cells); err != nil {
		return nil, err
	}
	p.buildRegions()
	if !opt.DisableISM {
		p.buildISMTasks()
	}
	p.initDirty()
	if opt.Golden != nil {
		p.posBuf = make([]float64, 2*len(cells))
	}
	return p, nil
}

// buildSegments assigns every movable cell to its free row segment. The
// segment of each cell is found first and the lists are then cut to size
// from one array.
func (p *placer) buildSegments(cells []int) error {
	d := p.d
	if len(d.Rows) == 0 {
		return fmt.Errorf("detail: design has no rows")
	}
	free := legalize.FreeSegments(d)
	// Row lookup by bottom y. Determinism contract: byY is used for
	// point lookups only, never range-iterated, so map order is
	// irrelevant (keys are distinct row baselines, so no overwrites).
	byY := make(map[float64]int, len(d.Rows))
	for ri, r := range d.Rows {
		byY[round6(r.Y)] = ri
	}
	// Segments in row-major order.
	segStart := make([]int, len(d.Rows)+1) // first seg index per row
	for ri := range free {
		segStart[ri+1] = segStart[ri] + len(free[ri])
	}
	p.segs = make([]segCells, segStart[len(d.Rows)])
	for ri := range free {
		for k, s := range free[ri] {
			p.segs[segStart[ri]+k] = segCells{lx: s.Lx, hx: s.Hx}
		}
	}
	p.segOf = make([]int32, len(d.Cells))
	p.regionOf = make([]int32, len(d.Cells))
	for i := range p.segOf {
		p.segOf[i] = -1
		p.regionOf[i] = -1
	}
	count := make([]int32, len(p.segs))
	for _, ci := range cells {
		c := &d.Cells[ci]
		ri, ok := byY[round6(c.Y-c.H/2)]
		if !ok {
			return fmt.Errorf("detail: cell %d not row-aligned (y=%v)", ci, c.Y-c.H/2)
		}
		// Find the segment containing the cell.
		found := -1
		for si := segStart[ri]; si < segStart[ri+1]; si++ {
			s := &p.segs[si]
			if c.X-c.W/2 >= s.lx-1e-6 && c.X+c.W/2 <= s.hx+1e-6 {
				found = si
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("detail: cell %d (%s) not inside a free segment", ci, c.Name)
		}
		p.segOf[ci] = int32(found)
		count[found]++
	}
	flat := make([]int, len(cells))
	off := 0
	for si := range p.segs {
		n := int(count[si])
		p.segs[si].cells = flat[off : off : off+n]
		off += n
	}
	for _, ci := range cells {
		s := &p.segs[p.segOf[ci]]
		s.cells = append(s.cells, ci)
	}
	// Equal abutting x (zero-width gaps) falls back to the cell index, so
	// the initial segment order is a total order.
	for si := range p.segs {
		slices.SortFunc(p.segs[si].cells, p.cmpCells)
	}
	return nil
}

// cmpCells is the (x, cell index) order every cell list is kept in: a
// strict total order, so a sorted list has exactly one arrangement
// whatever algorithm sorted it.
func (p *placer) cmpCells(a, b int) int {
	if p.cv.PosX[a] != p.cv.PosX[b] {
		if p.cv.PosX[a] < p.cv.PosX[b] {
			return -1
		}
		return 1
	}
	return a - b
}

// regionTargetCells sets region granularity: large enough that most of
// a cell's neighborhood is in its own (live) region — small designs get
// a single region and therefore exactly the serial semantics — small
// enough to spread a 50K+-cell design across a worker pool. maxRegions
// bounds snapshot bookkeeping.
const (
	regionTargetCells = 2048
	maxRegions        = 64
)

// buildRegions partitions the segment list into contiguous ranges with
// balanced cell counts. Determinism contract: the partition is a pure
// function of the design (segment contents), never of the worker
// count, so every worker count evaluates the same region boundaries.
func (p *placer) buildRegions() {
	managed := 0
	for si := range p.segs {
		managed += len(p.segs[si].cells)
	}
	g := managed / regionTargetCells
	if g < 1 {
		g = 1
	}
	if g > maxRegions {
		g = maxRegions
	}
	if g > len(p.segs) && len(p.segs) > 0 {
		g = len(p.segs)
	}
	p.segRegion = make([]int32, len(p.segs))
	acc, seg := 0, 0
	for r := 0; r < g; r++ {
		lo := seg
		target := ((r + 1) * managed) / g
		for seg < len(p.segs) && (acc < target || r == g-1) {
			acc += len(p.segs[seg].cells)
			p.segRegion[seg] = int32(r)
			seg++
		}
		p.regions = append(p.regions, segRange{lo, seg})
	}
	for si := range p.segs {
		for _, ci := range p.segs[si].cells {
			p.regionOf[ci] = p.segRegion[si]
		}
	}
	if g > 1 {
		p.snapX = make([]float64, len(p.d.Cells))
		p.snapY = make([]float64, len(p.d.Cells))
	}
	p.counts = make([]passCount, len(p.regions))
	p.evals = make([]*evalCtx, p.workers)
	for i := range p.evals {
		p.evals[i] = newEvalCtx(p)
	}
}

// snapshot freezes every managed cell's position into snapX/snapY.
// Parallel over segments (disjoint writes per cell).
func (p *placer) snapshot() {
	parallel.For(p.workers, len(p.segs), func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			for _, ci := range p.segs[si].cells {
				p.snapX[ci], p.snapY[ci] = p.cv.PosX[ci], p.cv.PosY[ci]
			}
		}
	})
}

// writeBack copies the managed cells' positions to their Cell structs,
// which hold the pass-start layout until then. Parallel over segments
// (disjoint writes per cell).
func (p *placer) writeBack() {
	parallel.For(p.workers, len(p.segs), func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			for _, ci := range p.segs[si].cells {
				c := &p.d.Cells[ci]
				c.X, c.Y = p.cv.PosX[ci], p.cv.PosY[ci]
			}
		}
	})
}

// forRegions snapshots the managed positions and runs fn once per
// region, sharded across the worker pool. fn mutates only its own
// region's cells and reads other regions through the snapshot, so each
// region's outcome is a pure function of the pass's starting state —
// identical at every worker count. A lone region owns every managed
// cell: it reads everything live and no snapshot is taken. Accepted-move
// and trial counters are written per region and reduced in region order
// here; the dirty marks the workers logged for other regions' cells are
// applied once all of them are done.
func (p *placer) forRegions(kind passKind, fn func(e *evalCtx, r int) passCount) (improved, ops int) {
	p.begin(kind)
	solo := len(p.regions) == 1
	if !solo {
		p.snapshot()
	}
	parallel.For(p.workers, len(p.regions), func(w, lo, hi int) {
		e := p.evals[w]
		e.allLive = solo
		for r := lo; r < hi; r++ {
			e.region = int32(r)
			p.counts[r] = fn(e, r)
		}
	})
	p.applyMarks()
	for r := range p.counts {
		improved += p.counts[r].improved
		ops += p.counts[r].ops
		p.trials[kind].priced += int64(p.counts[r].priced)
		p.trials[kind].skipped += int64(p.counts[r].skipped)
	}
	return improved, ops
}

// gap returns the free interval available to the cell at s.cells[k].
// Neighbors are always in the same segment (the caller's own region),
// so live reads are exact.
func (p *placer) gap(s *segCells, k int) (lo, hi float64) {
	lo, hi = s.lx, s.hx
	if k > 0 {
		c := s.cells[k-1]
		lo = max(lo, p.cv.PosX[c]+p.cv.CellW[c]/2)
	}
	if k+1 < len(s.cells) {
		c := s.cells[k+1]
		hi = min(hi, p.cv.PosX[c]-p.cv.CellW[c]/2)
	}
	return lo, hi
}

// relocatePass slides each cell within its own gap toward its optimal
// x, accepting when HPWL improves.
func (p *placer) relocatePass(res *Result) int {
	improved, ops := p.forRegions(relocateKind, func(e *evalCtx, r int) passCount {
		var pc passCount
		for si := p.regions[r].lo; si < p.regions[r].hi; si++ {
			s := &p.segs[si]
			for k, ci := range s.cells {
				if !p.dirty(ci) {
					pc.skipped++
					continue
				}
				pc.priced++
				lo, hi := p.gap(s, k)
				w := p.cv.CellW[ci]
				if hi-lo < w-1e-12 {
					continue
				}
				target := e.optimalX(ci)
				nx := max(lo+w/2, min(hi-w/2, target))
				if math.Abs(nx-p.cv.PosX[ci]) < 1e-12 {
					continue
				}
				e.begin1(ci)
				before := e.cost()
				e.tx[0] = nx
				if e.cost() < before-1e-12 {
					p.cv.PosX[ci] = nx
					e.markMoved(s, k)
					pc.improved++
					pc.ops++
				}
			}
		}
		return pc
	})
	res.Relocates += ops
	return improved
}

// swapAnchor is what the swap pass keeps of a cell's last turn as the
// anchor: its optimal x and the x-extent of the candidates it tried. A
// turn without an accepted swap tries a contiguous run of the segment,
// so while the anchor stays clean, a clean cell whose x lies inside the
// extent was one of them and its pair is known to be rejected (a clean
// cell has not moved, and cells of a segment are strictly ordered in x).
type swapAnchor struct{ opt, lo, hi float64 }

// swapPass tries exchanging each cell with cells of its segment nearest
// its optimal x. Iteration follows a fixed copy of each segment's order
// captured when the segment is entered (swaps permute it in place).
func (p *placer) swapPass(res *Result) int {
	improved, ops := p.forRegions(swapKind, func(e *evalCtx, r int) passCount {
		var pc passCount
		for si := p.regions[r].lo; si < p.regions[r].hi; si++ {
			s := &p.segs[si]
			e.order = append(e.order[:0], s.cells...)
			e.dropHalves(len(s.cells))
			for _, ci := range e.order {
				k := indexOf(s.cells, ci)
				if k < 0 {
					continue
				}
				// last is the anchor's previous turn, to be trusted while
				// clean holds: the anchor unmarked since, and not moved in
				// this one.
				last, clean := p.anchors[ci], !p.dirty(ci)
				target := last.opt
				if !clean {
					target = e.optimalX(ci)
				}
				xlo, xhi := math.Inf(1), math.Inf(-1) // of the candidates tried
				// Binary search for the first cell at or right of the
				// target (hand-rolled: sort.Search's closure allocates).
				lo, hi := 0, len(s.cells)
				for lo < hi {
					mid := (lo + hi) / 2
					if p.cv.PosX[s.cells[mid]] >= target {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				tried := 0
				for off := 0; off < len(s.cells) && tried < p.opt.SwapCandidates; off++ {
					if lo+off >= len(s.cells) && lo-off-1 < 0 {
						break // both sides have run off the segment
					}
					for side := 0; side < 2; side++ {
						j := lo + off
						if side == 1 {
							j = lo - off - 1
						}
						if j < 0 || j >= len(s.cells) || s.cells[j] == ci || tried >= p.opt.SwapCandidates {
							continue
						}
						tried++
						cj := s.cells[j]
						x := p.cv.PosX[cj]
						xlo, xhi = min(xlo, x), max(xhi, x)
						if clean && !p.dirty(cj) && last.lo <= x && x <= last.hi {
							pc.skipped++
							continue
						}
						pc.priced++
						if e.trySwap(s, min(k, j), max(k, j)) {
							pc.improved++
							pc.ops++
							k = j
							clean = false
							break
						}
					}
				}
				p.anchors[ci] = swapAnchor{opt: target, lo: xlo, hi: xhi}
			}
		}
		return pc
	})
	res.Swaps += ops
	return improved
}

// trySwap exchanges the cells at positions ka < kb of segment s when
// both fit in each other's gaps and HPWL improves.
func (e *evalCtx) trySwap(s *segCells, ka, kb int) bool {
	p := e.p
	a, b := s.cells[ka], s.cells[kb]
	wa, wb := p.cv.CellW[a], p.cv.CellW[b]
	loA, hiA := p.gap(s, ka)
	loB, hiB := p.gap(s, kb)
	var ax, bx float64 // where a and b would land
	if kb == ka+1 {
		// Adjacent: joint interval.
		if wb+wa > hiB-loA+1e-12 {
			return false
		}
		ax, bx = loA+wb+wa/2, loA+wb/2
	} else {
		if wb > hiA-loA+1e-12 || wa > hiB-loB+1e-12 {
			return false
		}
		ax = max(loB+wa/2, min(hiB-wa/2, p.cv.PosX[b]))
		bx = max(loA+wb/2, min(hiA-wb/2, p.cv.PosX[a]))
	}
	e.beginPair(s, ka, kb)
	e.tx[0], e.ty[0] = p.cv.PosX[a], p.cv.PosY[a]
	e.tx[1], e.ty[1] = p.cv.PosX[b], p.cv.PosY[b]
	before := e.cost()
	e.tx[0], e.tx[1] = ax, bx
	if e.cost() >= before-1e-12 {
		return false
	}
	p.cv.PosX[a], p.cv.PosX[b] = ax, bx
	s.cells[ka], s.cells[kb] = b, a
	e.markMoved(s, ka)
	e.markMoved(s, kb)
	e.dropHalves(len(s.cells))
	return true
}

// reorderWindow is the local reordering window size: all its
// permutations are priced, so the cost is factorial in it.
const reorderWindow = 3

// reorderPass permutes cells inside sliding windows of each segment.
func (p *placer) reorderPass(res *Result) int {
	const w = reorderWindow
	improved, ops := p.forRegions(reorderKind, func(e *evalCtx, r int) passCount {
		var pc passCount
		for si := p.regions[r].lo; si < p.regions[r].hi; si++ {
			s := &p.segs[si]
			for start := 0; start+w <= len(s.cells); start++ {
				if !p.anyDirty(s.cells[start : start+w]) {
					pc.skipped++
					continue
				}
				pc.priced++
				if e.tryReorder(s, start, w) {
					for k := start; k < start+w; k++ {
						e.markMoved(s, k)
					}
					pc.improved++
					pc.ops++
				}
			}
		}
		return pc
	})
	res.Reorders += ops
	return improved
}

// tryReorder tests all permutations of the w cells starting at position
// start of segment s, packing each permutation from the window's left
// boundary, and keeps the best.
func (e *evalCtx) tryReorder(s *segCells, start, w int) bool {
	p := e.p
	e.win = append(e.win[:0], s.cells[start:start+w]...)
	win := e.win
	lo, _ := p.gap(s, start)
	_, hi := p.gap(s, start+w-1)
	totalW := 0.0
	for _, ci := range win {
		totalW += p.cv.CellW[ci]
	}
	if totalW > hi-lo+1e-12 {
		return false
	}
	e.begin(win)
	for i, ci := range win {
		e.tx[i], e.ty[i] = p.cv.PosX[ci], p.cv.PosY[ci]
	}
	bestCost := e.cost()
	bestPerm := -1
	perms := permutations(w)
	for pi, perm := range perms {
		x := lo
		for _, idx := range perm {
			cw := p.cv.CellW[win[idx]]
			e.tx[idx] = x + cw/2
			x += cw
		}
		if cost := e.cost(); cost < bestCost-1e-12 {
			bestCost = cost
			bestPerm = pi
			e.bestXs = append(e.bestXs[:0], e.tx[:w]...)
		}
	}
	if bestPerm < 0 {
		return false
	}
	for i, idx := range perms[bestPerm] {
		p.cv.PosX[win[idx]] = e.bestXs[idx]
		s.cells[start+i] = win[idx]
	}
	return true
}

// permCache holds the permutation tables for the common window sizes;
// tables are built once and must never be mutated by callers.
var permCache = func() [][][]int {
	out := make([][][]int, 5)
	for n := 1; n <= 4; n++ {
		out[n] = buildPermutations(n)
	}
	return out
}()

// permutations returns all permutations of 0..n-1 (n small). The
// returned tables are shared and read-only for n <= 4.
func permutations(n int) [][]int {
	if n >= 1 && n < len(permCache) {
		return permCache[n]
	}
	return buildPermutations(n)
}

func buildPermutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	sub := buildPermutations(n - 1)
	var out [][]int
	for _, s := range sub {
		for pos := 0; pos <= len(s); pos++ {
			p := make([]int, 0, n)
			p = append(p, s[:pos]...)
			p = append(p, n-1)
			p = append(p, s[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

func indexOf(list []int, ci int) int {
	for i, v := range list {
		if v == ci {
			return i
		}
	}
	return -1
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
