package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/cluster"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/qp"
)

// FlowOptions configures the full placement flow of Fig. 1.
type FlowOptions struct {
	// GP configures both global placement stages (mGP and cGP).
	GP Options
	// AllowOrient lets mLG rotate macros by 90 degrees (see
	// legalize.MLGOptions.AllowOrient).
	AllowOrient bool
	// SkipLegalization stops after global placement, leaving an
	// overlapping layout (global-placement-quality studies).
	SkipLegalization bool

	// Levels enables multilevel (V-cycle) placement when > 1: the design
	// is coarsened up to Levels-1 times by best-choice clustering
	// (internal/cluster), mIP and the first global placement run on the
	// coarsest netlist, each finer level refines a warm start
	// interpolated from above (stages "mGP/L<k>", coarsest first), and
	// only the finest level runs the full mGP→mLG→cGP→cDP tail. 0 or 1
	// places flat. Clustering stops early on designs too small to pay
	// off, in which case the flow is identical to a flat run.
	Levels int
	// ClusterCap caps a cluster's area at this multiple of the average
	// movable standard-cell area (0 = the cluster package default).
	ClusterCap float64

	// Checkpoint, when non-nil, persists a crash-safe snapshot at every
	// stage boundary — and, with GP.CheckpointEvery > 0, every N GP
	// iterations mid-stage — so an interrupted flow can be continued
	// with Resume instead of restarting from scratch.
	Checkpoint *checkpoint.Manager
	// Resume continues a flow from a snapshot previously written via
	// Checkpoint. The design must be structurally identical (checked by
	// fingerprint); completed stages are skipped, a mid-stage snapshot
	// re-enters the GP loop at its captured iteration, and the final
	// placement is bitwise-identical to the uninterrupted run —
	// including the per-stage golden digests, whose rolling state is
	// part of the snapshot.
	Resume *checkpoint.State

	// gpHook, when set, runs as every GP stage of the flow starts (done
	// false) and ends (done true) in flowRun.gp; the tests account each
	// stage's allocations through it.
	gpHook func(stage string, done bool)
}

// The flow's own per-stage values, which no caller chooses.
const (
	// cgpFillerIters is the length of cGP's filler-only placement: with
	// the standard cells held, 20 iterations let the fillers re-spread
	// around the macros mLG just moved (Sec. VI-B).
	cgpFillerIters = 20
	// stallIters is every GP stage's stagnation window but eGP's.
	stallIters = 150
	// egpStallIters, egpLambdaScale and egpMaxIters are eGP's stall
	// window, initial-penalty scale and default iteration bound. A warm
	// start opens near the grid's overflow floor, so waiting out a long
	// window only grinds lambda upward while wirelength degrades. The
	// reused layout is the equilibrium of a grown penalty, so eGP resumes
	// in the late-cGP regime: balancing the gradients from scratch lets
	// the evicted cells collapse onto fixed neighbors before density
	// recovers. eGP runs only when a blockage evicts cells (see
	// placeMoved). A warm start converges in tens of iterations; the
	// bound only matters for pathological edits.
	egpStallIters  = 25
	egpLambdaScale = 10
	egpMaxIters    = 600
	// The seeds of the flow's random streams: filler placement (every GP
	// level and eGP), the mLG annealer and eGP's whitespace filler
	// seeding.
	fillerSeed     = 1
	mlgSeed        = 2
	whitespaceSeed = 2
)

// FlowResult aggregates per-stage results of one full placement. The
// embedded summary carries HPWL, Legal, DP, Stages and Digests.
type FlowResult struct {
	// MIP reports the quadratic initial placement: rounds, CG iterations,
	// wirelength per round and why it stopped. Zero when a resumed run
	// skipped the stage.
	MIP qp.Result
	MGP Result
	MLG legalize.MLGResult
	CGP Result

	// ML lists the coarse levels' global-placement results (coarsest
	// first) when the flow ran a multilevel V-cycle; empty for flat
	// runs. The finest level's result is MGP as usual.
	ML []MLLevel

	// MixedSize reports whether the mLG/cGP stages ran.
	MixedSize bool

	flowSummary
}

// Flow phases of one hierarchy level in execution order, used to decide
// which work a resumed run still has ahead of it. Levels above the
// finest run only the first two.
const (
	phMIP = iota
	phMGP
	phMLG
	phCGPFiller
	phCGP
	phCDP
	phDone
)

// resumeAt maps a snapshot to where the flow re-enters: the hierarchy
// level (of K+1) whose design the positions belong to, the first phase
// still to run there, and whether the snapshot is mid-stage (carries
// GPState).
func resumeAt(rs *checkpoint.State, K int) (level, ph int, mid bool, err error) {
	if lvl, m, ok := checkpoint.ParseMLPhase(rs.Phase); ok {
		if lvl < 1 || lvl > K {
			return 0, 0, false, fmt.Errorf("core: snapshot level L%d outside hierarchy depth %d", lvl, K+1)
		}
		level, ph, mid = lvl, phMGP, m
		if !mid {
			// post-mGP/L<k>: level k was interpolated down; the snapshot
			// holds level k-1 positions.
			level = lvl - 1
		}
	} else {
		switch rs.Phase {
		case checkpoint.PhasePostMIP:
			level, ph = K, phMGP
		case checkpoint.PhasePostML:
			ph = phMGP
		case checkpoint.PhaseMGP:
			ph, mid = phMGP, true
		case checkpoint.PhasePostMGP:
			ph = phMLG
		case checkpoint.PhasePostMLG:
			ph = phCGPFiller
		case checkpoint.PhaseCGPFiller:
			ph, mid = phCGPFiller, true
		case checkpoint.PhasePostCGPFiller:
			ph = phCGP
		case checkpoint.PhaseCGP:
			ph, mid = phCGP, true
		case checkpoint.PhasePreCDP:
			ph = phCDP
		case checkpoint.PhaseDone:
			ph = phDone
		default:
			return 0, 0, false, fmt.Errorf("core: unknown checkpoint phase %q", rs.Phase)
		}
	}
	if rs.Level != level {
		return 0, 0, false, fmt.Errorf("core: snapshot level %d does not match phase %q (expect %d; options changed?)", rs.Level, rs.Phase, level)
	}
	return level, ph, mid, nil
}

// Place runs the complete ePlace flow on d: quadratic initial placement
// (mIP), mixed-size global placement (mGP), annealing macro legalization
// (mLG) and standard-cell re-placement (cGP) when movable macros exist,
// then legalization plus detail placement (cDP). The design's positions
// are modified in place; its cells are not: the fillers of the global
// placements live in the run's compiled views alone.
//
// With opt.Checkpoint set, the flow snapshots itself at every stage
// boundary (and every GP.CheckpointEvery iterations inside the GP
// loops); with opt.Resume set, it continues from such a snapshot and
// produces a final placement bitwise-identical to the uninterrupted
// run.
func Place(d *netlist.Design, opt FlowOptions) (FlowResult, error) {
	return PlaceContext(context.Background(), d, opt)
}

// PlaceContext is Place with cooperative cancellation, the primitive a
// job scheduler preempts placements with. The context is checked once
// per global-placement iteration and at every stage boundary; on
// cancellation the flow persists a final checkpoint (when a manager is
// installed — mid-stage inside the GP loops, so nothing past the last
// finished iteration is lost), stops, and returns the partial results
// with an error wrapping ErrCanceled. Resuming from that checkpoint
// finishes with per-stage golden digests bitwise-identical to an
// uninterrupted run's.
//
// The flow is one loop over hierarchy levels K..0 (a flat run is K = 0):
// mIP seeds the coarsest level, every level runs a global placement
// with its own fillers, levels above the finest interpolate down as the
// next level's warm start, and level 0 — the input design — continues
// into the mLG→cGP→cDP tail.
func PlaceContext(ctx context.Context, d *netlist.Design, opt FlowOptions) (FlowResult, error) {
	var res FlowResult
	if err := poisson.ValidateKind(opt.GP.Poisson); err != nil {
		return res, err
	}
	r := newRun(ctx, d, &opt.GP, opt.Checkpoint, &res.flowSummary)
	r.mgp, r.gpHook = &res.MGP, opt.gpHook
	res.MixedSize = r.mixedSize

	rs := opt.Resume
	if rs != nil {
		if err := rs.Validate(d); err != nil {
			return res, err
		}
		if rs.MixedSize != res.MixedSize {
			return res, fmt.Errorf("core: snapshot mixed-size=%v but design mixed-size=%v",
				rs.MixedSize, res.MixedSize)
		}
	}

	// The hierarchy is built only when a coarse level still has work
	// (fresh runs and coarse-level resumes). Clustering reads design
	// structure only — never positions — so a resumed process rebuilds
	// the bit-identical stack the fingerprint vouched for.
	// views[k] is level k's compiled view: the input design's is the
	// run's, a coarse level's was compiled with the level.
	views := []*netlist.Compiled{r.cv}
	var hier *cluster.Hierarchy
	if rs == nil || rs.Level > 0 {
		if hier = buildHierarchy(r.cv, &opt); hier != nil {
			for _, lvl := range hier.Levels {
				views = append(views, lvl.View)
			}
		}
	}
	K := len(views) - 1

	startLevel, ph, mid := K, phMIP, false
	if rs != nil {
		if rs.Level > 0 && hier == nil {
			return res, fmt.Errorf("core: snapshot %q (level %d) is from a multilevel run but this flow builds no levels (set Levels)",
				rs.Phase, rs.Level)
		}
		var err error
		if startLevel, ph, mid, err = resumeAt(rs, K); err != nil {
			return res, err
		}
		// Continue the rolling digests so final per-stage hashes match
		// the uninterrupted run's.
		r.golden.SetState(rs.Golden)
		res.MGP.Iterations = rs.MGPIterations
		res.MGP.FinalLambda = rs.MGPFinalLambda
	}
	// resumeGP hands the snapshot's in-flight loop state to the one GP
	// stage it was captured in.
	resumeGP := func(stagePh int) *checkpoint.GPState {
		if mid && ph == stagePh {
			return rs.GP
		}
		return nil
	}

	// The input design's filler plan reads the fixed flags before mLG
	// fixes the macros, and sizes the GP workspace.
	plan0 := insertPlan(d)
	r.reserveGP(plan0)
	var fillers []int
	for k := startLevel; k >= 0; k-- {
		cv, movable, plan := views[k], r.movable, plan0
		ld := cv.Design()
		if k > 0 {
			movable, plan = ld.Movable(), insertPlan(ld)
		}
		// --- mIP: quadratic wirelength minimization over all movables,
		// on the coarsest netlist only — a coarse seed is all the V-cycle
		// needs. ---
		if k == K && ph <= phMIP {
			var err error
			if res.MIP, err = r.mip(cv, k, movable); err != nil {
				return res, err
			}
		}

		// Fillers exist from a level's global placement on, in the level's
		// view: through cGP on the input design, until interpolation above
		// it. A resumed run re-derives them from the same seed (count and
		// initial positions are functions of design structure only), then
		// overwrites every position the snapshot captured.
		if ph <= phCGP {
			fillers = placeFillers(cv, ld.Region, plan, fillerSeed)
		}
		if rs != nil && k == startLevel {
			if err := r.resume(rs, cv, fillers, ph, mid, len(movable)); err != nil {
				return res, err
			}
		}
		if ph >= phDone {
			// The snapshot is of a finished flow: recompute the summary.
			// Rows may have been flow-built in the original run; rebuild them
			// the same way so the legality check sees the same geometry.
			r.ensureRows()
			r.summarize(false)
			return res, nil
		}

		// --- mGP: co-place cells, macros and fillers (stage "mGP/L<k>"
		// above the finest level). ---
		if ph <= phMGP {
			stage, gpOpt := checkpoint.PhaseMGP, opt.GP
			if k > 0 {
				stage = checkpoint.PhaseMLevel(k)
				gpOpt.GridM = mlGridM(opt.GP.GridM, k)
				gpOpt.TargetOverflow = coarseOverflow(opt.GP.TargetOverflow, k)
			}
			// Every level's penalty starts cold (lambdaInit 0 picks the
			// engine's gradient-ratio estimate). Handing the converged lambda
			// down — the cGP seeding recipe applied between levels — was
			// measured and rejected: the interpolated start is over-spread,
			// and a mature penalty keeps it from contracting (~10% worse
			// HPWL).
			t0 := time.Now()
			lr, err := r.gp(gpStage{
				name: stage, phase: stage, cv: cv, level: k, region: ld.Region,
				idx: r.stageIdx(movable, fillers),
				opt: gpOpt, resume: resumeGP(phMGP),
			})
			r.addStage(stage, time.Since(t0))
			if k > 0 {
				res.ML = append(res.ML, MLLevel{Level: k, Cells: len(ld.Cells), Result: lr})
			} else {
				res.MGP = lr
			}
			if err != nil {
				return res, err
			}
		}
		if k > 0 {
			// Hand the level's solution down as the next level's warm start.
			cv.DropFillers()
			hier.Interpolate(k)
			next := checkpoint.PhasePostML
			if k > 1 {
				next = checkpoint.PhasePostMLevel(k)
			}
			if err := r.boundary(next, k-1, views[k-1]); err != nil {
				return res, err
			}
			ph = phMIP // levels below the resume point run in full
		} else if ph <= phMGP {
			if err := r.boundary(checkpoint.PhasePostMGP, 0, r.cv); err != nil {
				return res, err
			}
		}
	}

	if res.MixedSize {
		// --- mLG: legalize and fix macros (std cells held). ---
		if ph <= phMLG {
			r.rec.SetStage("mLG")
			t0 := time.Now()
			res.MLG = legalize.Macros(d, r.movMacros, legalize.MLGOptions{
				Seed: mlgSeed, AllowOrient: opt.AllowOrient, Telemetry: r.rec,
			})
			r.golden.Absorb("mLG", 0, d.Positions(r.movMacros), d.HPWL(), 0)
			r.addStage("mLG", time.Since(t0))
			if !res.MLG.Legal {
				return res, fmt.Errorf("core: mLG left macro overlap %v", res.MLG.OmAfter)
			}
			if err := r.boundary(checkpoint.PhasePostMLG, 0, r.cv); err != nil {
				return res, err
			}
		}

		// --- cGP: filler-only placement, then free the std cells. ---
		t0 := time.Now()
		if ph <= phCGPFiller {
			if !opt.GP.DisableFillerPhase && len(fillers) > 0 {
				// The stage holds the standard cells where they are: they
				// contribute charge as fixed objects, or the fillers would
				// spread as if the cells did not exist.
				fOpt := opt.GP
				fOpt.MaxIters = cgpFillerIters
				fOpt.MinIters = cgpFillerIters
				fOpt.TargetOverflow = 1e-9
				_, err := r.gp(gpStage{
					name: "cGP-filler", phase: checkpoint.PhaseCGPFiller, cv: r.cv, region: d.Region,
					idx: fillers, held: r.stdCells, opt: fOpt, lambdaInit: 1, resume: resumeGP(phCGPFiller),
				})
				if err != nil {
					return res, err
				}
			}
			if err := r.boundary(checkpoint.PhasePostCGPFiller, 0, r.cv); err != nil {
				return res, err
			}
		}
		if ph <= phCGP {
			// lambda_cGP = lambda_mGP_last * 1.1^-m, m = mGP iters / 10.
			m := float64(res.MGP.Iterations) / 10
			var err error
			res.CGP, err = r.gp(gpStage{
				name: "cGP", phase: checkpoint.PhaseCGP, cv: r.cv, region: d.Region,
				idx: r.stageIdx(r.stdCells, fillers),
				opt: opt.GP, lambdaInit: res.MGP.FinalLambda * math.Pow(1.1, -m), resume: resumeGP(phCGP),
			})
			r.addStage("cGP", time.Since(t0))
			if err != nil {
				return res, err
			}
		}
	}

	// Fillers are placement aids only.
	r.cv.DropFillers()

	if opt.SkipLegalization {
		r.summarize(false)
		return res, nil
	}
	// cDP is not internally interruptible (its repair passes have no
	// capturable mid-state); a cancellation landing here stops before it
	// starts, resumable from the pre-cDP boundary.
	if err := r.boundary(checkpoint.PhasePreCDP, 0, r.cv); err != nil {
		return res, err
	}

	// --- cDP: row legalization + discrete refinement. ---
	if _, _, err := r.cdp(r.stdCells, r.stdCells, nil); err != nil {
		return res, err
	}
	err := r.finish()
	return res, err
}

// resume writes the snapshot rs into level's view cv, which holds the
// re-derived fillers, once all it reads is checked: a refused snapshot
// leaves the caller's cells alone. A boundary snapshot taken before the
// level's fillers existed adopts the re-derived ones. A mid-stage one's
// vectors must fit the cells its stage (phase ph) moves: the level's
// movable ones at phMGP, the standard cells at phCGP, and the fillers. A
// run resumed past mLG fixes the macros again.
func (r *flowRun) resume(rs *checkpoint.State, cv *netlist.Compiled, fillers []int, ph int, mid bool, movable int) error {
	ld := cv.Design()
	base := len(ld.Cells)
	if rs.NumBaseCells != base || (rs.NumFillers != len(fillers) && (rs.NumFillers > 0 || mid)) {
		return fmt.Errorf("core: level L%d rebuilt with %d cells + %d fillers, snapshot has %d + %d (design or options changed?)",
			rs.Level, base, len(fillers), rs.NumBaseCells, rs.NumFillers)
	}
	if gs := rs.GP; mid && gs != nil {
		n := len(fillers)
		switch ph {
		case phMGP:
			n += movable
		case phCGP:
			n += len(r.stdCells)
		}
		if err := gs.Validate(n); err != nil {
			return err
		}
	}
	if err := rs.RestorePositions(ld); err != nil {
		return err
	}
	copy(cv.PosX[base:], rs.X[base:])
	copy(cv.PosY[base:], rs.Y[base:])
	if rs.Level == 0 && ph > phMLG {
		legalize.FixMacros(ld, r.movMacros)
	}
	return nil
}
