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
	"eplace/internal/netlist"
	"eplace/internal/poisson"
)

// ECOOptions configures an incremental re-placement run.
type ECOOptions struct {
	// GP configures the warm-started global placement over the active
	// cells (workers, Poisson backend, telemetry, golden trace).
	GP Options
	// Detail configures cDP refinement; SkipDetail stops after
	// legalization.
	Detail     detail.Options
	SkipDetail bool
	// MaxIters bounds the incremental GP stage (default 600: a warm
	// start near the density target converges in tens of iterations;
	// the bound only matters for pathological edits).
	MaxIters int
	// Checkpoint, when non-nil, persists a done-phase snapshot of the
	// finished incremental placement, so further ECO runs (or the
	// server's job chaining) can stack on top of this one.
	Checkpoint *checkpoint.Manager
}

// ecoPerturb is the localized jitter radius applied to the fresh cells
// before the warm start, in multiples of the average active-cell
// dimension. The jitter breaks the exact-stacking symmetry of cells
// seeded at one net centroid — identical positions feel identical
// gradients and would never separate.
const ecoPerturb = 2

// ECOResult reports one incremental re-placement. The embedded summary
// carries HPWL and Legal of the final full layout, DP (the detail
// refinement over the active cells), Stages and StageTime ("eGP",
// "cDP"), and the per-stage golden Digests ("eGP", "cDP", "final"; for
// a no-op edit the "final" digest equals the cold run's).
type ECOResult struct {
	// GP is the incremental global placement over the active cells
	// (stage "eGP"); zero-valued for no-op edits.
	GP Result
	// NoOp reports that the edit changed nothing structurally: the
	// previous placement was returned untouched, bit for bit.
	NoOp bool
	// ActiveCells and FrozenCells are the plan's split sizes.
	ActiveCells, FrozenCells int
	// LegalizeDisp and LegalizeMaxDisp are the incremental row
	// legalization's total and max displacement over the active cells.
	LegalizeDisp, LegalizeMaxDisp float64

	flowSummary
}

// PlaceECO runs an incremental re-placement of d, which must hold the
// previous placement's positions with the edit script already applied
// (see eco.Prepare). Frozen cells are temporarily marked fixed — the
// wirelength model treats them as terminals, the density model
// rasterizes them as immovable charge, and legalization/detail route
// around them as obstacles — and are restored afterwards, bitwise at
// their input positions (enforced, not assumed). Only the plan's
// active cells move: a short Nesterov placement warm-started from the
// current positions (no mIP), then the flow's cDP tail with row
// legalization and detail placement over the active cells only.
//
// An empty plan (structural no-op) short-circuits: positions are
// untouched and the "final" golden digest matches a cold run of the
// same design exactly, at any worker count.
func PlaceECO(ctx context.Context, d *netlist.Design, plan *eco.Plan, opt ECOOptions) (ECOResult, error) {
	var res ECOResult
	if plan == nil {
		return res, fmt.Errorf("core: PlaceECO needs a freeze plan (see eco.Prepare)")
	}
	if err := poisson.CheckKind(opt.GP.Poisson); err != nil {
		return res, err
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 600
	}
	// The run opens — and takes its fingerprint — before anything below
	// mutates structure the fingerprint covers: a future ECO chaining off
	// this result validates against a freshly rebuilt, input-shaped design.
	r := newRun(ctx, d, &opt.GP, opt.Checkpoint, &res.flowSummary)
	res.ActiveCells = len(plan.Active)
	res.FrozenCells = len(plan.Frozen)

	// Rows are part of the reused context: build them exactly as the
	// cold flow would, before any freezing hides standard cells from
	// the height vote.
	r.ensureRows()

	// Structural no-op: reuse the previous placement bit for bit.
	res.NoOp = len(plan.Active) == 0
	if !res.NoOp {
		// Snapshot the frozen positions: ending anywhere else is a bug the
		// caller must see, not a silent quality loss.
		frozenX := make([]float64, len(plan.Frozen))
		frozenY := make([]float64, len(plan.Frozen))
		for k, ci := range plan.Frozen {
			frozenX[k] = d.Cells[ci].X
			frozenY[k] = d.Cells[ci].Y
		}
		if err := replaceActive(r, plan, opt, &res); err != nil {
			return res, err
		}
		for k, ci := range plan.Frozen {
			if d.Cells[ci].X != frozenX[k] || d.Cells[ci].Y != frozenY[k] {
				return res, fmt.Errorf("core: frozen cell %d (%s) moved from (%v, %v) to (%v, %v): freeze invariant violated",
					ci, d.Cells[ci].Name, frozenX[k], frozenY[k], d.Cells[ci].X, d.Cells[ci].Y)
			}
		}
	}
	err := r.finish()
	return res, err
}

// replaceActive is the part of PlaceECO that runs with the plan's
// frozen cells pinned: fresh-cell jitter, the warm-started eGP stage,
// snap-back, and the cDP tail over the active cells.
func replaceActive(run *flowRun, plan *eco.Plan, opt ECOOptions, res *ECOResult) error {
	d := run.d
	// Freeze: everything movable outside the active set becomes a fixed
	// obstacle for the duration of the run; the deferred restore covers
	// every exit (the flow mutates fixedness the same way during the cGP
	// filler-only phase).
	wasFixed := make([]bool, len(d.Cells))
	for i := range d.Cells {
		wasFixed[i] = d.Cells[i].Fixed
	}
	defer func() {
		for i := range wasFixed {
			d.Cells[i].Fixed = wasFixed[i]
		}
	}()
	for _, ci := range plan.Frozen {
		d.Cells[ci].Fixed = true
	}

	// The active cells' input positions are their trusted legal slots
	// from the reused placement (except fresh cells, which never had
	// one): remembered here, before any perturbation, for the
	// post-eGP snap-back below.
	baseX := make([]float64, len(plan.Active))
	baseY := make([]float64, len(plan.Active))
	for k, ci := range plan.Active {
		baseX[k] = d.Cells[ci].X
		baseY[k] = d.Cells[ci].Y
	}
	freshSet := make(map[int]bool, len(plan.Fresh))
	for _, ci := range plan.Fresh {
		freshSet[ci] = true
	}

	// Localized perturbation of the fresh cells only: deterministic
	// jitter (seeded, serial) so stacked insertions seeded at one net
	// centroid separate under the density force. Pre-existing cells are
	// already at distinct converged positions and need no symmetry
	// breaking — jittering them would only add churn the snap-back has
	// to undo.
	aw, ah := avgActiveDim(d, plan.Active)
	jr := ecoPerturb * math.Max(aw, ah)
	rng := rand.New(rand.NewSource(opt.GP.Seed + 3))
	for _, ci := range plan.Fresh {
		c := &d.Cells[ci]
		if c.Fixed || c.Kind != netlist.StdCell {
			continue
		}
		ang := 2 * math.Pi * rng.Float64()
		rad := jr * rng.Float64()
		c.X += rad * math.Cos(ang)
		c.Y += rad * math.Sin(ang)
		p := clampCell(c, d)
		c.X, c.Y = p.x, p.y
	}

	// --- eGP: warm-started global placement over the active cells. ---
	// Fillers occupy the whitespace exactly as in the cold flow: without
	// them the density force would spread the active cells into every
	// free pocket of the region, inflating wirelength far past the
	// converged placement being reused.
	gpOpt := opt.GP
	if gpOpt.MaxIters == 0 {
		gpOpt.MaxIters = opt.MaxIters
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
	if gpOpt.StallIters <= 0 {
		gpOpt.StallIters = 25
	}
	// Resume in the late-cGP penalty regime (see Options.LambdaScale):
	// the reused layout is the equilibrium of a *grown* penalty, and
	// re-balancing from scratch lets the active cells collapse onto
	// frozen neighbors before density recovers — quality the legalizer
	// then pays back several times over in displacement.
	if gpOpt.LambdaScale <= 0 {
		gpOpt.LambdaScale = 10
	}
	t0 := time.Now()
	gpIdx := plan.Active
	if fillers := InsertFillers(d, opt.GP.Seed+1); len(fillers) > 0 {
		seedFillersInWhitespace(d, fillers, opt.GP.Seed+2)
		gpIdx = append(append(make([]int, 0, len(plan.Active)+len(fillers)), plan.Active...), fillers...)
	}
	var err error
	res.GP, err = run.gp(gpStage{name: "eGP", cv: run.cv, idx: gpIdx, opt: gpOpt})
	d.RemoveFillers()
	run.addStage("eGP", time.Since(t0))
	if err != nil {
		return err
	}

	// --- Incremental cDP: legalize and refine the active cells only.
	// Frozen cells are fixed obstacles, so FreeSegments carves them out
	// of the rows and no pass can step on them. ---
	//
	// Snap-back: every active cell that still has a trusted slot returns
	// to its exact input position, pinned there through legalization —
	// the reused placement was legal, and its slots are disjoint by
	// construction. Only the fresh cells (which never had a slot) and
	// cells whose slot a new fixed footprint swallowed (a region
	// blockage) legalize, into whatever real whitespace is left; they
	// displace nothing. The alternatives both lose: legalizing the
	// active set from its raw eGP positions repacks every cell's drift
	// noise into the narrow gaps between frozen cells, and legalizing
	// it from snapped positions unpinned lets a fresh cell squat in a
	// full segment and evict its widest incumbent across the die (the
	// greedy pass prices the squatter's own displacement, not the
	// eviction it causes). Parking the fresh cell in the nearest gap
	// that genuinely fits costs a few units of its own wirelength,
	// which the detail pass below then claws back.
	var freshFixed, freshHalos []geom.Rect
	for _, ci := range plan.Fresh {
		c := &d.Cells[ci]
		if c.Fixed && c.W > 0 && c.H > 0 {
			r := c.Rect()
			freshFixed = append(freshFixed, r)
			// The displaced area has to land in a ring around the new
			// obstacle; cells in that ring must keep their eGP pushes or
			// the evictees pile onto whatever gaps the ring's pinned
			// occupants left. Ring width scales with the obstacle size.
			freshHalos = append(freshHalos, r.Expand(0.5*math.Sqrt(r.W()*r.H())))
		}
	}
	var snapped, moved []int
	for k, ci := range plan.Active {
		c := &d.Cells[ci]
		if freshSet[ci] {
			moved = append(moved, ci)
			continue
		}
		slot := geom.Rect{Lx: baseX[k] - c.W/2, Ly: baseY[k] - c.H/2, Hx: baseX[k] + c.W/2, Hy: baseY[k] + c.H/2}
		trusted := true
		for _, fr := range freshHalos {
			if ov := slot.Intersect(fr); ov.Valid() && ov.W() > 1e-9 && ov.H() > 1e-9 {
				trusted = false
				break
			}
		}
		if !trusted {
			moved = append(moved, ci)
			continue
		}
		c.X, c.Y = baseX[k], baseY[k]
		snapped = append(snapped, ci)
	}
	// Park each fresh movable cell at the point of its optimal region —
	// the exact minimizer of the weighted HPWL extension it causes,
	// computed against the snapped-back positions its neighbors keep —
	// nearest its eGP position. The eGP trajectory positioned it
	// against neighbors that have since reverted, so its raw drift
	// position is only an estimate; the closed-form one costs nothing
	// and leaves legalization shifting it within the flat bottom of the
	// wirelength bowl.
	type retarget struct {
		ci   int
		x, y float64
	}
	var retargets []retarget
	for _, ci := range plan.Fresh {
		c := &d.Cells[ci]
		if c.Fixed || c.Kind != netlist.StdCell {
			continue
		}
		x, okX := optimalCoord(d, ci, c.X, false)
		y, okY := optimalCoord(d, ci, c.Y, true)
		if okX || okY {
			if !okX {
				x = c.X
			}
			if !okY {
				y = c.Y
			}
			retargets = append(retargets, retarget{ci, x, y})
		}
	}
	for _, t := range retargets {
		c := &d.Cells[t.ci]
		c.X, c.Y = t.x, t.y
		cl := clampCell(c, d)
		c.X, c.Y = cl.x, cl.y
	}
	// Deeper refinement than the cold flow's: it is the pass that
	// recovers the wirelength a fresh cell loses when no gap exists at
	// its ideal spot and legalization parks it a few rows away. It is
	// not free: the active set is 7% of the design for a reweight of 20
	// nets but all of it for a 5% insertion. The cDP stage is 29% of the
	// time of the benchmark's edit suite and eGP 58%, now that eGP prices
	// only the nets with a pin on an active cell (21% and 69% before
	// that; cDP was 37% before its later passes priced only the trials
	// an accepted move touched, and half, before it priced its trials
	// against cached net boxes; ROADMAP 2d).
	dOpt := opt.Detail
	if dOpt.Passes <= 0 {
		dOpt.Passes = 6
	}
	if dOpt.SwapCandidates <= 0 {
		dOpt.SwapCandidates = 16
	}
	res.LegalizeDisp, res.LegalizeMaxDisp, err = run.cdp(snapped, moved, plan.Active, dOpt, opt.SkipDetail)
	return err
}

// WarmStart loads a finished placement's snapshot into a freshly built
// design ahead of an ECO run: it validates that the snapshot belongs to
// d, requires a done-phase (filler-free) state, and restores the
// positions while keeping d's own Fixed flags. The flags matter: the
// flow pins macros after mLG, and that pinning is runtime state of the
// finished run, not netlist structure — letting it leak into the edited
// design would change its fingerprint and break chained ECO resumes.
func WarmStart(d *netlist.Design, st *checkpoint.State) error {
	if err := st.Validate(d); err != nil {
		return err
	}
	if st.Phase != checkpoint.PhaseDone || st.NumFillers != 0 {
		return fmt.Errorf("core: snapshot is at phase %q with %d fillers; incremental re-placement needs a finished run (phase %q)",
			st.Phase, st.NumFillers, checkpoint.PhaseDone)
	}
	fixed := make([]bool, len(d.Cells))
	for i := range d.Cells {
		fixed[i] = d.Cells[i].Fixed
	}
	if err := st.RestorePositions(d); err != nil {
		return err
	}
	for i := range fixed {
		d.Cells[i].Fixed = fixed[i]
	}
	return nil
}

// avgActiveDim returns the average width/height of the given cells.
func avgActiveDim(d *netlist.Design, idx []int) (w, h float64) {
	if len(idx) == 0 {
		return 1, 1
	}
	for _, ci := range idx {
		w += d.Cells[ci].W
		h += d.Cells[ci].H
	}
	return w / float64(len(idx)), h / float64(len(idx))
}

// clampCell keeps a cell's center inside the region respecting size.
// optimalCoord returns the point nearest cur within the cell's optimal
// region along one axis: the minimizer set of the weighted sum of each
// net's bounding-interval extension, holding every other pin fixed. The
// objective is piecewise linear and convex with breakpoints at the
// nets' interval endpoints, so the minimizer is where the subgradient
// sum_n w_n*([x > h_n] - [x < l_n]) crosses zero. ok is false when the
// cell has no nets with other pins.
func optimalCoord(d *netlist.Design, ci int, cur float64, yAxis bool) (best float64, ok bool) {
	type event struct {
		x     float64
		slope float64 // subgradient step when passing x left to right
	}
	var events []event
	for _, pi := range d.Cells[ci].Pins {
		ni := d.Pins[pi].Net
		n := &d.Nets[ni]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, np := range n.Pins {
			p := &d.Pins[np]
			if p.Cell == ci {
				continue
			}
			v := p.Ox
			if yAxis {
				v = p.Oy
			}
			if p.Cell >= 0 {
				if yAxis {
					v += d.Cells[p.Cell].Y
				} else {
					v += d.Cells[p.Cell].X
				}
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo > hi {
			continue
		}
		w := n.EffWeight()
		events = append(events, event{lo, w}, event{hi, w})
	}
	if len(events) == 0 {
		return cur, false
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
	if cur < lo {
		return lo, true
	}
	if cur > hi {
		return hi, true
	}
	return cur, true
}

type clamped struct{ x, y float64 }

func clampCell(c *netlist.Cell, d *netlist.Design) clamped {
	hw, hh := c.W/2, c.H/2
	x := math.Min(math.Max(c.X, d.Region.Lx+hw), d.Region.Hx-hw)
	y := math.Min(math.Max(c.Y, d.Region.Ly+hh), d.Region.Hy-hh)
	return clamped{x, y}
}

// seedFillersInWhitespace moves freshly inserted fillers from their
// uniform-random positions into the placement's actual whitespace,
// proportionally to per-bin free area. A warm start must open near its
// converged state: fillers dropped uniformly overlap the placed cells,
// and the density force resolving that artificial overlap shoves the
// active cells off the good positions the ECO run is trying to reuse.
func seedFillersInWhitespace(d *netlist.Design, fillers []int, seed int64) {
	if len(fillers) == 0 {
		return
	}
	const n = 64
	r := d.Region
	binW, binH := r.W()/n, r.H()/n
	if binW <= 0 || binH <= 0 {
		return
	}
	// InsertFillers appends, so everything before the first filler
	// index is a real cell.
	occ := make([]float64, n*n)
	for ci := 0; ci < fillers[0]; ci++ {
		cr := d.Cells[ci].Rect()
		lx, hx := math.Max(cr.Lx, r.Lx), math.Min(cr.Hx, r.Hx)
		ly, hy := math.Max(cr.Ly, r.Ly), math.Min(cr.Hy, r.Hy)
		if hx <= lx || hy <= ly {
			continue
		}
		bx0, bx1 := binClamp(int((lx-r.Lx)/binW), n), binClamp(int((hx-r.Lx)/binW), n)
		by0, by1 := binClamp(int((ly-r.Ly)/binH), n), binClamp(int((hy-r.Ly)/binH), n)
		for by := by0; by <= by1; by++ {
			y0 := r.Ly + float64(by)*binH
			oy := math.Min(hy, y0+binH) - math.Max(ly, y0)
			if oy <= 0 {
				continue
			}
			for bx := bx0; bx <= bx1; bx++ {
				x0 := r.Lx + float64(bx)*binW
				if ox := math.Min(hx, x0+binW) - math.Max(lx, x0); ox > 0 {
					occ[by*n+bx] += ox * oy
				}
			}
		}
	}
	cum := make([]float64, n*n)
	total := 0.0
	for b, o := range occ {
		if f := binW*binH - o; f > 0 {
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
		c := &d.Cells[fi]
		c.X = r.Lx + (float64(b%n)+rng.Float64())*binW
		c.Y = r.Ly + (float64(b/n)+rng.Float64())*binH
		p := clampCell(c, d)
		c.X, c.Y = p.x, p.y
	}
}

// binClamp clamps a bin coordinate into [0, n).
func binClamp(b, n int) int {
	if b < 0 {
		return 0
	}
	if b >= n {
		return n - 1
	}
	return b
}
