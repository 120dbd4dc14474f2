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
	// server's job chaining) can stack on top of this one.
	Checkpoint *checkpoint.Manager
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
// (see eco.Prepare). Frozen cells are temporarily marked fixed — the
// wirelength model treats them as terminals, the density model
// rasterizes them as immovable charge, and legalization/detail route
// around them as obstacles — and are restored afterwards, bitwise at
// their input positions (enforced, not assumed). Only the plan's
// active cells move, and most of them only in cDP: the held cells (the
// active cells that keep their slot) reach cDP at their input
// positions (enforced too), inserted cells go from their seed to their
// optimal region, and a short Nesterov placement (eGP, warm-started,
// no mIP) runs only when a blockage evicts cells, over those cells.
// The flow's cDP tail then legalizes the fresh and evicted cells and
// refines the active set.
//
// An empty plan (structural no-op) short-circuits: positions are
// untouched and the "final" golden digest matches a cold run of the
// same design exactly, at any worker count.
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
	r := newRun(ctx, d, &opt.GP, opt.Checkpoint, &res.flowSummary)
	res.ActiveCells = len(plan.Active)
	res.EvictedCells = len(plan.Evicted)
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
		frozenPos := d.Positions(plan.Frozen)
		if err := replaceActive(r, plan, opt, &res); err != nil {
			return res, err
		}
		if err := unmoved(d, plan.Frozen, frozenPos, "frozen"); err != nil {
			return res, err
		}
	}
	err := r.finish()
	return res, err
}

// unmoved errors when one of the cells is no longer bitwise where
// pos, taken by d.Positions(cells), has it.
func unmoved(d *netlist.Design, cells []int, pos []float64, what string) error {
	n := len(cells)
	for k, ci := range cells {
		if c := &d.Cells[ci]; c.X != pos[k] || c.Y != pos[k+n] {
			return fmt.Errorf("core: %s cell %d (%s) moved from (%v, %v) to (%v, %v): %s invariant violated",
				what, ci, c.Name, pos[k], pos[k+n], c.X, c.Y, what)
		}
	}
	return nil
}

// replaceActive is the part of PlaceECO that runs with the plan's
// frozen cells pinned: placeMoved, then the cDP tail over the active
// cells.
func replaceActive(run *flowRun, plan *eco.Plan, opt ECOOptions, res *ECOResult) error {
	d := run.d
	// Freeze: the frozen cells are fixed obstacles for the duration of the
	// run; the deferred restore covers every exit (the flow mutates
	// fixedness the same way during the cGP filler-only phase).
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
	held, moved, err := placeMoved(run, plan, opt.GP, res)
	if err != nil {
		return err
	}

	// --- Incremental cDP: legalize the fresh and evicted cells around the
	// held ones, pinned at their slots, then refine the active cells
	// only. Frozen cells are fixed obstacles, so FreeSegments carves them
	// out of the rows and no pass can step on them. ---
	//
	// Legalizing the held cells too would repack their slots around each
	// newcomer: the greedy pass prices the newcomer's own displacement,
	// not the eviction it causes, and would shift a wide incumbent across
	// the die to admit it. Parking the newcomer in the nearest real gap
	// costs a few units of its own wirelength, which the detail passes,
	// deeper than the cold flow's, then claw back.
	res.LegalizeDisp, res.LegalizeMaxDisp, err = run.cdp(held, moved, plan.Active,
		detail.Options{Passes: ecoDetailPasses, SwapCandidates: ecoSwapCandidates})
	return err
}

// placeMoved places what the edit moved, ahead of cDP. It splits the
// active cells into the held ones, which keep their input slot (the
// reused placement was legal, and its slots are disjoint by
// construction), and the moved ones: the fresh cells, which never had a
// slot, and the evicted ones, which lost theirs to a blockage. It pins
// the held cells (cDP releases them), runs eGP over the evicted cells
// when there are any, parks each inserted cell in its optimal region,
// and errors when a held cell left its slot.
func placeMoved(run *flowRun, plan *eco.Plan, gpOpt Options, res *ECOResult) (held, moved []int, err error) {
	d := run.d
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
			d.Cells[ci].Fixed = true
		}
	}
	heldPos := d.Positions(held)

	if len(plan.Evicted) > 0 {
		if res.GP, err = evictedGP(run, plan.Evicted, gpOpt); err != nil {
			return nil, nil, err
		}
	}

	// Park each inserted cell at the point of its optimal region — the
	// exact minimizer of the weighted HPWL extension it causes, computed
	// against the positions its neighbors keep — nearest its net-centroid
	// seed. Legalization then shifts it within the flat bottom of the
	// wirelength bowl, into the nearest gap that genuinely fits. Every
	// target is taken before any inserted cell moves.
	type target struct {
		c *netlist.Cell
		p geom.Point
	}
	var targets []target
	for _, ci := range plan.Fresh {
		if c := &d.Cells[ci]; !c.Fixed && c.Kind == netlist.StdCell {
			p := geom.Point{X: optimalCoord(d, ci, c.X, false), Y: optimalCoord(d, ci, c.Y, true)}
			targets = append(targets, target{c, geom.ClampPoint(p, c.W, c.H, d.Region)})
		}
	}
	for _, t := range targets {
		t.c.X, t.c.Y = t.p.X, t.p.Y
	}
	return held, moved, unmoved(d, held, heldPos, "held")
}

// evictedGP runs eGP: a warm-started global placement of the evicted
// cells and the whitespace's fillers, with every other cell as charge at
// its slot. Inserted cells sit out: they neither move nor carry charge.
func evictedGP(run *flowRun, evicted []int, gpOpt Options) (Result, error) {
	d := run.d
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
	t0 := time.Now()
	// Fillers occupy the whitespace exactly as in the cold flow: without
	// them the density force would spread the evicted cells into every
	// free pocket of the region, far from the blockage that displaced
	// them.
	idx := evicted
	if fillers := InsertFillers(d, fillerSeed); len(fillers) > 0 {
		seedFillersInWhitespace(d, fillers, whitespaceSeed)
		idx = append(append(make([]int, 0, len(evicted)+len(fillers)), evicted...), fillers...)
	}
	// The penalty resumes in the late-cGP regime (egpLambdaScale): a
	// cold balance lets the moving cells collapse onto their fixed
	// neighbors, quality the legalizer then pays back several times over
	// in displacement.
	res, err := run.gp(gpStage{
		name: "eGP", cv: run.cv, idx: idx, opt: gpOpt,
		lambdaScale: egpLambdaScale, stallIters: egpStallIters,
	})
	d.RemoveFillers()
	run.addStage("eGP", time.Since(t0))
	return res, err
}

// ecoDetailPasses and ecoSwapCandidates are the ECO cDP's depth: twice
// the cold flow's passes and swap candidates (see replaceActive).
const (
	ecoDetailPasses   = 6
	ecoSwapCandidates = 16
)

// WarmStart loads a finished placement's snapshot into a freshly built
// design ahead of an ECO run: it validates that the snapshot belongs to
// d, requires a done-phase (filler-free) state, and restores the
// positions while keeping d's own Fixed flags. The flags matter: the
// flow pins macros after mLG, and that pinning is runtime state of the
// finished run, not netlist structure — letting it leak into the edited
// design would change its fingerprint and break chained ECO resumes.
// Like a .pl warm start it reads positions only, so the snapshot's
// Poisson stamp does not matter.
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

// optimalCoord returns the point nearest cur within the cell's optimal
// region along one axis: the minimizer set of the weighted sum of each
// net's bounding-interval extension, holding every other pin fixed. The
// objective is piecewise linear and convex with breakpoints at the
// nets' interval endpoints, so the minimizer is where the subgradient
// sum_n w_n*([x > h_n] - [x < l_n]) crosses zero. It returns cur when
// the cell has no nets with other pins.
func optimalCoord(d *netlist.Design, ci int, cur float64, yAxis bool) float64 {
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
	// InsertFillers appends, so everything before the first filler
	// index is a real cell.
	g := grid.New(r, n)
	for ci := 0; ci < fillers[0]; ci++ {
		g.AddFixed(d.Cells[ci].Rect())
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
		c := &d.Cells[fi]
		x := r.Lx + (float64(b%n)+rng.Float64())*g.BinW
		y := r.Ly + (float64(b/n)+rng.Float64())*g.BinH
		p := geom.ClampPoint(geom.Point{X: x, Y: y}, c.W, c.H, r)
		c.X, c.Y = p.X, p.Y
	}
}
