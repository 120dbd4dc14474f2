package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/detail"
	"eplace/internal/eco"
	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
)

// ECOOptions configures an incremental re-placement run.
type ECOOptions struct {
	// GP configures the run (workers, telemetry) and the warm-started
	// global placement over the evicted cells, where GP.MaxIters
	// defaults to 600 and GP.TargetOverflow to 0.15.
	GP Options
	// Checkpoint, when non-nil, persists a done-phase snapshot of the
	// finished incremental placement, so further ECO runs (or the
	// server's job chaining) can stack on top of this one. A nil
	// *checkpoint.Manager counts as none.
	Checkpoint Saver

	// gpHook is FlowOptions.gpHook for the eGP stage.
	gpHook func(s gpStage, done bool)
}

// ECOResult reports one incremental re-placement. The embedded summary
// carries HPWL and Legal of the final full layout, DP (the detail
// refinement over the active cells), Stages ("eGP" when it ran, "cDP"),
// and the per-stage golden Digests ("eGP" when it ran, "cDP", "final";
// for a no-op edit the "final" digest equals the cold run's).
type ECOResult struct {
	// GP is the incremental global placement over the evicted cells
	// (stage "eGP"). It is zero-valued, with an empty Stop, when eGP did
	// not run: for no-op edits and for every edit that evicts no cell.
	GP Result
	// NoOp reports that the edit changed nothing structurally: the
	// previous placement was returned untouched, bit for bit.
	NoOp bool
	// ActiveCells, EvictedCells and FrozenCells are the plan's split
	// sizes; the evicted cells are part of the active set.
	ActiveCells, EvictedCells, FrozenCells int
	// LegalizeDisp and LegalizeMaxDisp are the incremental row
	// legalization's total and max displacement over the active cells.
	LegalizeDisp, LegalizeMaxDisp float64

	flowSummary
}

// PlaceECO runs an incremental re-placement of d, which must hold the
// previous placement's positions with the edit script already applied
// (see eco.Prepare). The frozen cells are held for the whole run: no
// stage lists them among the cells it moves, so the wirelength model
// treats them as terminals, eGP rasterizes them as fixed charge, and
// legalization and detail placement route around them as obstacles.
// They end bitwise at their input positions (enforced, not assumed),
// and no cell's Fixed flag changes. Only the plan's active cells move,
// and most of them only in cDP: the held cells (the active cells that
// keep their slot) reach cDP at their input positions (enforced too),
// inserted cells go from their seed to their optimal region, and a short
// Nesterov placement (eGP, warm-started, no mIP) runs only when a
// blockage evicts cells, over those cells and inside their eviction
// window. The flow's cDP tail then legalizes the fresh and evicted cells
// and refines the active set.
//
// An empty plan (structural no-op) short-circuits: positions are
// untouched and the "final" golden digest matches a cold run of the
// same design exactly, at any worker count. Like Place, the stages place
// in the run's compiled view, and the flow writes the positions to d's
// cells when it returns.
func PlaceECO(ctx context.Context, d *netlist.Design, plan *eco.Plan, opt ECOOptions) (ECOResult, error) {
	var res ECOResult
	if plan == nil {
		return res, fmt.Errorf("core: PlaceECO needs a freeze plan (see eco.Prepare)")
	}
	if err := poisson.ValidateKind(opt.GP.Poisson); err != nil {
		return res, err
	}
	// The run opens — and takes its fingerprint — before anything below
	// mutates structure the fingerprint covers: a future ECO chaining off
	// this result validates against a freshly rebuilt, input-shaped design.
	// Its view has no filler room: most edits run no eGP, and eGP's
	// fillers, sized by the eviction window, grow the view once.
	r := newRun(ctx, d, 0, &opt.GP, opt.Checkpoint, &res.flowSummary)
	defer r.cv.Store()
	r.gpHook = opt.gpHook
	moved, held := splitActive(d, plan)
	res.ActiveCells = len(plan.Active)
	res.EvictedCells = len(plan.Evicted)
	res.FrozenCells = len(plan.Frozen)

	// Rows are part of the reused context: build them exactly as the
	// cold flow would.
	r.ensureRows()

	// Structural no-op: reuse the previous placement bit for bit.
	res.NoOp = len(plan.Active) == 0
	if !res.NoOp {
		// Snapshot the frozen positions: ending anywhere else is a bug the
		// caller must see, not a silent quality loss.
		frozenPos := r.cv.Positions(plan.Frozen)
		if err := replaceActive(r, plan, moved, held, opt, &res); err != nil {
			return res, err
		}
		if err := unmoved(r.cv, plan.Frozen, frozenPos, "frozen"); err != nil {
			return res, err
		}
	}
	err := r.finish()
	return res, err
}

// unmoved errors when one of the cells is no longer bitwise where
// pos, taken by cv.Positions(cells), has it.
func unmoved(cv *netlist.Compiled, cells []int, pos []float64, what string) error {
	n := len(cells)
	for k, ci := range cells {
		if x, y := cv.PosX[ci], cv.PosY[ci]; x != pos[k] || y != pos[k+n] {
			return fmt.Errorf("core: %s cell %d (%s) moved from (%v, %v) to (%v, %v): %s invariant violated",
				what, ci, cv.Design().Cells[ci].Name, pos[k], pos[k+n], x, y, what)
		}
	}
	return nil
}

// replaceActive is the part of PlaceECO that moves cells: placeMoved,
// then the cDP tail over the active cells.
func replaceActive(run *flowRun, plan *eco.Plan, moved, held []int, opt ECOOptions, res *ECOResult) error {
	d := run.d
	if err := placeMoved(run, plan, held, opt.GP, res); err != nil {
		return err
	}

	// --- Incremental cDP: legalize the fresh and evicted cells around the
	// held ones at their slots, then refine the active cells only. Each
	// pass carves every cell it does not place out of the rows
	// (legalize.FreeSegments), so the held cells are obstacles to the
	// legalizer and the frozen ones to both passes. ---
	//
	// Legalizing the held cells too would repack their slots around each
	// newcomer: the greedy pass prices the newcomer's own displacement,
	// not the eviction it causes, and would shift a wide incumbent across
	// the die to admit it. Parking the newcomer in the nearest real gap
	// costs a few units of its own wirelength, which the detail passes
	// then claw back.
	//
	// The held cells reach cDP as the previous cDP left them, so the
	// refinement starts from the edit (detail.Edit): the moved cells are
	// marked with their neighbourhoods, the changed cells alone, and the
	// cells beside a removed cell's slot. It runs the cold flow's passes,
	// the moved cells alone taking swap turns (see detail.PlaceCompiled).
	edit := &detail.Edit{Moved: moved, Changed: plan.Seeds}
	for _, ci := range plan.Fresh {
		if c := &d.Cells[ci]; c.Fixed && c.W == 0 && c.H == 0 {
			edit.Vacated = append(edit.Vacated, ci)
		}
	}
	var err error
	res.LegalizeDisp, res.LegalizeMaxDisp, err = run.cdp(moved, plan.Active, edit)
	return err
}

// splitActive splits the plan's active cells, in their order, into the
// moved ones: the fresh cells, which never had a slot, and the evicted
// ones, which lost theirs to a blockage; and the held ones, which keep
// their input slot (the reused placement was legal, and its slots are
// disjoint by construction).
func splitActive(d *netlist.Design, plan *eco.Plan) (moved, held []int) {
	lost := make([]bool, len(d.Cells))
	for _, cells := range [][]int{plan.Fresh, plan.Evicted} {
		for _, ci := range cells {
			lost[ci] = true
		}
	}
	for _, ci := range plan.Active {
		if lost[ci] {
			moved = append(moved, ci)
		} else {
			held = append(held, ci)
		}
	}
	return moved, held
}

// placeMoved places what the edit moved (see splitActive), ahead of
// cDP. It runs eGP over the evicted cells when there are any, holding
// the frozen and held cells, parks each inserted cell in its optimal
// region, and errors when a held cell left its slot.
func placeMoved(run *flowRun, plan *eco.Plan, held []int, gpOpt Options, res *ECOResult) error {
	d, cv := run.d, run.cv
	heldPos := cv.Positions(held)

	if len(plan.Evicted) > 0 {
		var err error
		if res.GP, err = evictedGP(run, plan, held, gpOpt); err != nil {
			return err
		}
	}

	// Park each inserted cell at the point of its optimal region — the
	// exact minimizer of the weighted HPWL extension it causes, computed
	// against the positions its neighbors keep — nearest its net-centroid
	// seed. Legalization then shifts it within the flat bottom of the
	// wirelength bowl, into the nearest gap that genuinely fits. Every
	// target is taken before any inserted cell moves.
	type target struct {
		ci int
		p  geom.Point
	}
	var targets []target
	for _, ci := range plan.Fresh {
		if c := &d.Cells[ci]; !c.Fixed && c.Kind == netlist.StdCell {
			p := geom.Point{X: optimalCoord(cv, ci, cv.PosX, cv.PinOx), Y: optimalCoord(cv, ci, cv.PosY, cv.PinOy)}
			targets = append(targets, target{ci, geom.ClampPoint(p, cv.CellW[ci], cv.CellH[ci], d.Region)})
		}
	}
	for _, t := range targets {
		cv.PosX[t.ci], cv.PosY[t.ci] = t.p.X, t.p.Y
	}
	return unmoved(cv, held, heldPos, "held")
}

// evictedGP runs eGP: a warm-started global placement of the evicted
// cells and the fillers of their eviction window's whitespace, inside
// that window, holding the frozen and the held cells (see egpStage).
func evictedGP(run *flowRun, plan *eco.Plan, held []int, gpOpt Options) (Result, error) {
	t0 := time.Now()
	res, err := run.gp(egpStage(run, plan, held, gpOpt))
	run.cv.DropFillers()
	run.addStage("eGP", time.Since(t0))
	return res, err
}

// egpStage inserts eGP's fillers into the run's view and describes its
// stage, which holds the plan's frozen cells and the held active cells
// (see splitActive). The stage places inside the eviction window
// (evictionWindow): its grid covers the window alone, m follows the
// window's own object count, the fixed charge is the fixed, frozen and
// held footprints clipped to it, and its edge is the Poisson problem's
// Neumann boundary, as the die edge is for a cold run. Cells outside it
// are absent. Inserted cells sit out: they neither move nor carry
// charge.
func egpStage(run *flowRun, plan *eco.Plan, held []int, gpOpt Options) gpStage {
	d, cv := run.d, run.cv
	if gpOpt.MaxIters <= 0 {
		gpOpt.MaxIters = egpMaxIters
	}
	// A warm start opens at the grid's overflow quantization floor, not
	// at tau~1 like a cold run: the subset-relative overflow can never
	// reach the cold target, so chasing it only grinds lambda upward
	// (degrading the reused wirelength) until the stagnation guard
	// fires. Accept a slightly looser target and a short stall window —
	// the incremental legalizer resolves what the grid cannot see.
	if gpOpt.TargetOverflow <= 0 {
		gpOpt.TargetOverflow = 0.15
	}
	held = append(append(make([]int, 0, len(plan.Frozen)+len(held)), plan.Frozen...), held...)
	still := cv.FixedOrHeldInto(nil, held)
	window, free := evictionWindow(cv, plan, still)
	// Fillers take the window's whitespace as in the cold flow: without
	// them the density force would spread the evicted cells into every
	// free pocket of the window, far from the blockage that displaced
	// them. Only the evicted cells carry movable charge, so they alone
	// come off the budget. The filler size is averaged over the standard
	// cells the stage does not hold, the evicted and inserted ones.
	fp := planFillers(d, d.TargetDensity*free-areaOf(d, plan.Evicted), still)
	idx := plan.Evicted
	if fillers := placeFillers(cv, window, fp, fillerSeed); len(fillers) > 0 {
		seedFillersInWhitespace(cv, window, fillers, whitespaceSeed, still)
		idx = append(append(make([]int, 0, len(idx)+len(fillers)), idx...), fillers...)
	}
	if gpOpt.GridM == 0 {
		objects := len(idx)
		for i, s := range still {
			if s && cv.Rect(i).Intersects(window) {
				objects++
			}
		}
		// Filler by filler: a product rounds differently and can move m.
		area := areaOf(d, plan.Evicted)
		for range len(idx) - len(plan.Evicted) {
			area += fp.w * fp.h
		}
		gpOpt.GridM = chooseGridM(window, objects, area, len(idx))
	}
	// The penalty resumes in the late-cGP regime (egpLambdaScale): a
	// cold balance lets the moving cells collapse onto their fixed
	// neighbors, quality the legalizer then pays back several times over
	// in displacement.
	return gpStage{
		name: "eGP", cv: cv, region: window, idx: idx, held: held, opt: gpOpt,
		lambdaScale: egpLambdaScale, stallIters: egpStallIters,
	}
}

// evictionWindow returns the region eGP places the evicted cells, of
// which there is at least one, in and its free area (the window less the
// footprints inside it of the cells still marks, see
// Compiled.FixedOrHeldInto). It starts from the bounding box of the
// blockages' eviction halos and the evicted cells, and grows by one ring
// of bins of the die's grid at a time until the target density of its
// free area holds the evicted area, or it covers the region.
func evictionWindow(cv *netlist.Compiled, plan *eco.Plan, still []bool) (geom.Rect, float64) {
	d := cv.Design()
	w := cv.Rect(plan.Evicted[0])
	for _, ci := range plan.Evicted {
		w = w.Union(cv.Rect(ci))
	}
	for _, ci := range plan.Fresh {
		if c := &d.Cells[ci]; c.Fixed && c.W > 0 && c.H > 0 {
			w = w.Union(eco.EvictionHalo(cv.Rect(ci)))
		}
	}
	need := areaOf(d, plan.Evicted)
	m := float64(grid.ChooseM(len(d.Cells)))
	ringW, ringH := d.Region.W()/m, d.Region.H()/m
	for {
		w = w.Intersect(d.Region)
		free := w.Area()
		for i, s := range still {
			if s {
				free -= cv.Rect(i).Overlap(w)
			}
		}
		if d.TargetDensity*free >= need || w == d.Region {
			return w, max(free, 0)
		}
		w = geom.Rect{Lx: w.Lx - ringW, Ly: w.Ly - ringH, Hx: w.Hx + ringW, Hy: w.Hy + ringH}
	}
}

// areaOf returns the summed area of the cells.
func areaOf(d *netlist.Design, cells []int) float64 {
	a := 0.0
	for _, ci := range cells {
		a += d.Cells[ci].Area()
	}
	return a
}

// WarmStart loads a finished placement's snapshot into a freshly built
// design ahead of an ECO run: it validates that the snapshot belongs to
// d, requires a done-phase (filler-free) state, and restores the
// positions. d keeps its own Fixed flags: a snapshot carries none, so
// the macros the finished run fixed after mLG stay movable in d, and its
// fingerprint stays the one chained ECO resumes validate against. Like a
// .pl warm start it reads positions only, so a snapshot of a run whose
// mLG turned macros is refused with a *TurnedMacrosError.
func WarmStart(d *netlist.Design, st *checkpoint.State) error {
	if err := st.Validate(d); err != nil {
		return err
	}
	if st.Phase != checkpoint.PhaseDone || st.NumFillers != 0 {
		return fmt.Errorf("core: snapshot is at phase %q with %d fillers; incremental re-placement needs a finished run (phase %q)",
			st.Phase, st.NumFillers, checkpoint.PhaseDone)
	}
	if len(st.Turns) > 0 {
		return &TurnedMacrosError{Macros: len(st.Turns)}
	}
	return st.RestorePositions(d)
}

// TurnedMacrosError refuses to warm-start an ECO run from a snapshot
// that records mLG macro turns (FlowOptions.AllowOrient): its positions
// belong to turned footprints, and incremental re-placement does not
// turn macros.
type TurnedMacrosError struct {
	// Macros is the number of movable macros the snapshot records turns
	// for.
	Macros int
}

func (e *TurnedMacrosError) Error() string {
	return fmt.Sprintf("core: snapshot records mLG turns of its %d movable macros; incremental re-placement of turned macros is not supported", e.Macros)
}

// optimalCoord returns the point nearest the cell's view position pos[ci]
// within its optimal region along one axis, whose view positions and pin
// offsets are pos and off: the minimizer set of the weighted sum of each
// net's bounding-interval extension, holding every other pin fixed. The
// objective is piecewise linear and convex with breakpoints at the nets'
// interval endpoints, so the minimizer is where the subgradient
// sum_n w_n*([x > h_n] - [x < l_n]) crosses zero. It returns pos[ci]
// when the cell has no nets with other pins.
func optimalCoord(cv *netlist.Compiled, ci int, pos, off []float64) float64 {
	type event struct {
		x     float64
		slope float64 // subgradient step when passing x left to right
	}
	cur := pos[ci]
	var events []event
	for _, ni := range cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := cv.NetOff[ni]; s < cv.NetOff[ni+1]; s++ {
			pc := cv.PinCell[s]
			if int(pc) == ci {
				continue
			}
			v := off[s]
			if pc >= 0 {
				v += pos[pc]
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo > hi {
			continue
		}
		w := cv.NetW[ni]
		events = append(events, event{lo, w}, event{hi, w})
	}
	if len(events) == 0 {
		return cur
	}
	sort.Slice(events, func(a, b int) bool { return events[a].x < events[b].x })
	// Subgradient left of all events is -sum of net weights (every net
	// pulls right); it gains each event's slope as x passes it. The
	// optimal region spans from the event that brings it to >= 0
	// through the last event where it stays 0.
	total := 0.0
	for _, e := range events {
		total += e.slope
	}
	g := -total / 2
	lo, hi := events[0].x, events[len(events)-1].x
	for i, e := range events {
		g += e.slope
		if g >= 0 {
			lo = e.x
			hi = e.x
			for j := i + 1; j < len(events) && g == 0; j++ {
				hi = events[j].x
				g += events[j].slope
			}
			break
		}
	}
	return geom.Clamp(cur, lo, hi)
}

// seedFillersInWhitespace moves freshly inserted fillers of the view cv
// from their uniform-random positions into the whitespace of region r,
// proportionally to per-bin free area, where only the footprints of the
// cells still marks occupy space (evicted and inserted cells carry no
// fixed charge and are about to move). A warm start must open near its
// converged state: fillers dropped uniformly overlap the placed cells,
// and the density force resolving that artificial overlap shoves the
// active cells off the good positions the ECO run is trying to reuse.
func seedFillersInWhitespace(cv *netlist.Compiled, r geom.Rect, fillers []int, seed int64, still []bool) {
	if len(fillers) == 0 {
		return
	}
	const n = 64
	g := grid.New(r, n)
	for i, s := range still {
		if s {
			g.AddFixed(cv.Rect(i))
		}
	}
	cum := make([]float64, n*n)
	total := 0.0
	for b, o := range g.Fixed {
		if f := g.BinArea() - o; f > 0 {
			total += f
		}
		cum[b] = total
	}
	if total <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for k, fi := range fillers {
		t := (float64(k) + 0.5) / float64(len(fillers)) * total
		b := sort.SearchFloat64s(cum, t)
		if b >= n*n {
			b = n*n - 1
		}
		x := r.Lx + (float64(b%n)+rng.Float64())*g.BinW
		y := r.Ly + (float64(b/n)+rng.Float64())*g.BinH
		p := geom.ClampPoint(geom.Point{X: x, Y: y}, cv.CellW[fi], cv.CellH[fi], r)
		cv.PosX[fi], cv.PosY[fi] = p.X, p.Y
	}
}
