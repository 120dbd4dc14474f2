package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/detail"
	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/reuse"
	"eplace/internal/telemetry"
)

// StageSpan is one completed flow stage and its wall-clock time.
type StageSpan struct {
	Name string
	Time time.Duration
}

// flowSummary is the part of a result every flow fills the same way,
// through the run context below; FlowResult and ECOResult embed it.
type flowSummary struct {
	// HPWL is the final half-perimeter wirelength.
	HPWL float64
	// Legal reports that the final standard-cell layout passed
	// legalize.CheckLegal (vacuously, without standard cells) and the
	// macros CheckMacrosLegal.
	Legal bool
	// DP is the cDP detail refinement's result.
	DP detail.Result

	// Stages lists every stage that ran, in execution order, with its
	// wall-clock time (Fig. 7). Reports should iterate this rather
	// than a hardcoded stage list so new stages cannot be dropped.
	Stages []StageSpan

	// Digests are the per-stage golden-trace hashes (rolling word fold
	// over every iteration's positions, cost and lambda) in execution
	// order, ending with the "final" digest over the finished layout.
	// Two runs of the same flow are bitwise-identical iff these match,
	// at any worker count; the determinism CI job asserts exactly that.
	Digests []telemetry.StageDigest
}

// ErrCanceled is returned (wrapped, with the phase that was running)
// when a flow is stopped by context cancellation. The result returned
// alongside it carries the partial results of the stages that
// completed, and — when a checkpoint manager was installed — a final
// snapshot was persisted first, so the run is resumable from exactly
// where it stopped. Test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("core: placement canceled")

// canceledAt converts a cancellation observed at phase into the typed
// flow error (partial results travel in the result struct).
func canceledAt(phase string) error {
	return fmt.Errorf("%w (phase %s)", ErrCanceled, phase)
}

// flowRun is the run context every placement flow drives its stages
// through: it owns what a stage boundary needs — the context, the input
// design and its identity, the telemetry recorder, the golden trace,
// the checkpoint manager with its deferred error, and the stage
// accounting — so flat, V-cycle and ECO placement differ only in the
// arguments they pass to the methods below (see PlaceContext, PlaceECO).
type flowRun struct {
	ctx context.Context
	// d is the input (finest) design. Snapshots carry its name and fp,
	// the fingerprint taken before the flow mutates any structure it
	// covers (cDP builds rows when the design has none): a resume always
	// validates against a fresh input-shaped design, whichever level's
	// positions the snapshot holds. Only snapshots read fp, so it is taken
	// only when a checkpoint manager is installed.
	d  *netlist.Design
	fp uint64
	// cv is the one compiled view of d, lent to every stage that runs on
	// the input design (mIP, the GP stages, cDP). The Cell structs are the
	// truth between stages: each stage syncs the view on entry and writes
	// its result back to the structs before it returns. The fillers of
	// the GP stages live in the view alone, from the level's mGP (or eGP)
	// until the flow drops them.
	cv *netlist.Compiled
	// opt is the caller's global-placement configuration, the base every
	// GP stage derives from.
	opt    *Options
	rec    *telemetry.Recorder
	golden *telemetry.GoldenTrace
	ckpt   *checkpoint.Manager
	// ckptErr carries a failed mid-stage snapshot write out of the GP
	// iteration loop.
	ckptErr error

	// The movable sets as the input design has them, taken before mLG
	// fixes the macros it legalizes.
	movable, stdCells, movMacros []int
	mixedSize                    bool

	// eng is the run's GP workspace: every GP stage resets it (see
	// engine.reset), so the stages of one placement share its memory. A
	// cold flow sizes it once, before the first stage, for the largest
	// (reserveGP); it dies with the run.
	eng engine
	// idx is the buffer the flow lists a stage's moved cells in
	// (stageIdx).
	idx []int
	// gpHook is FlowOptions.gpHook.
	gpHook func(stage string, done bool)

	// mgp is the finest-level mGP result: its iteration count and final
	// penalty seed cGP's (Sec. VI-B), so every snapshot carries them.
	mgp *Result
	sum *flowSummary
}

// newRun opens a run over d. The golden digest harness is always on:
// the engine absorbs one hash update per iteration (negligible next to
// a gradient evaluation) and every run gains a determinism fingerprint.
func newRun(ctx context.Context, d *netlist.Design, gp *Options, ckpt *checkpoint.Manager, sum *flowSummary) *flowRun {
	r := &flowRun{
		ctx: ctx, d: d, cv: d.Compile(),
		opt: gp, rec: gp.Telemetry, golden: telemetry.NewGoldenTrace(), ckpt: ckpt,
		movable:   d.Movable(),
		stdCells:  d.MovableOf(netlist.StdCell),
		movMacros: d.MovableOf(netlist.Macro),
		mgp:       &Result{}, sum: sum,
	}
	r.mixedSize = len(r.movMacros) > 0
	if ckpt != nil {
		r.fp = checkpoint.Fingerprint(d)
	}
	return r
}

// addStage appends a completed stage to the ordered list and emits its
// span to telemetry.
func (r *flowRun) addStage(name string, d time.Duration) {
	r.sum.Stages = append(r.sum.Stages, StageSpan{Name: name, Time: d})
	r.rec.EmitSpan(name, "", d)
}

// snapshot assembles one full snapshot under the input design's
// identity: the positions of level's design, from its Cell structs, then
// those of the fillers its view cv holds.
func (r *flowRun) snapshot(phase string, level int, cv *netlist.Compiled) *checkpoint.State {
	st := &checkpoint.State{
		Phase:          phase,
		DesignName:     r.d.Name,
		Fingerprint:    r.fp,
		MixedSize:      r.mixedSize,
		MGPIterations:  r.mgp.Iterations,
		MGPFinalLambda: r.mgp.FinalLambda,
		Level:          level,
		Golden:         r.golden.State(),
	}
	n := len(cv.Design().Cells)
	st.CapturePositions(cv.Design(), len(cv.PosX)-n)
	copy(st.X[n:], cv.PosX[n:])
	copy(st.Y[n:], cv.PosY[n:])
	return st
}

// save persists one snapshot when a manager is installed. A requested
// checkpoint that cannot be written is an error, not a silent skip: the
// user asked for restartability.
func (r *flowRun) save(phase string, level int, cv *netlist.Compiled) error {
	if r.ckpt == nil {
		return nil
	}
	return r.ckpt.Save(r.snapshot(phase, level, cv))
}

// boundary closes a stage: it persists the boundary snapshot, then
// honours a cancellation that arrived during the stage — in that order,
// so a canceled run is resumable from the boundary it stopped at.
func (r *flowRun) boundary(phase string, level int, cv *netlist.Compiled) error {
	if err := r.save(phase, level, cv); err != nil {
		return err
	}
	if r.ctx.Err() != nil {
		return canceledAt(phase)
	}
	return nil
}

// mip runs the quadratic initial placement (stage "mIP") over mv, every
// movable of level's design, through its view cv.
func (r *flowRun) mip(cv *netlist.Compiled, level int, mv []int) (qp.Result, error) {
	ld := cv.Design()
	r.rec.SetStage("mIP")
	t0 := time.Now()
	res := qp.PlaceCompiled(cv, mv)
	hpwl := ld.HPWL()
	r.golden.Absorb("mIP", 0, ld.Positions(mv), hpwl, 0)
	r.rec.AddSpanTime("mIP", "assemble", res.Assemble)
	r.rec.AddSpanTime("mIP", "solve", res.Solve)
	r.rec.Count("mIP/rounds", int64(res.Rounds))
	r.rec.Count("mIP/cg_iters", int64(res.CGIterations))
	r.addStage("mIP", time.Since(t0))
	r.rec.Sample(Sample{Stage: "mIP", HPWL: hpwl})
	return res, r.boundary(checkpoint.PhasePostMIP, level, cv)
}

// gpStage describes one global-placement stage to placeGlobal: what
// the caller chose (opt) and what the flow decides per stage.
type gpStage struct {
	// name is the stage label (telemetry, golden digest, errors).
	name string
	// phase labels the stage's mid-stage snapshots; "" writes none (an
	// interrupted ECO run restarts from its input).
	phase string
	// cv is the view of the design being placed, fillers included, and
	// level its hierarchy level.
	cv    *netlist.Compiled
	level int
	// region is where the stage places: the level design's region, or the
	// eviction window of an ECO call (see engine.reset).
	region geom.Rect
	// idx are the cells the stage moves. held are movable cells the stage
	// holds where they are: like the fixed cells they carry fixed charge
	// and do not count toward the automatic grid size. Cell.Fixed is left
	// alone.
	idx, held []int
	opt       Options
	// lambdaInit > 0 seeds the penalty factor; 0 balances it cold.
	lambdaInit float64
	// lambdaScale > 0 multiplies the cold balance (eGP: egpLambdaScale).
	lambdaScale float64
	// stallIters is the stagnation window: the stage stops (StopStall)
	// when overflow has not improved for this many iterations (0 =
	// stallIters; eGP: egpStallIters).
	stallIters int
	// golden absorbs every iteration's state into the stage's rolling
	// determinism digest; nil records nothing.
	golden *telemetry.GoldenTrace
	// sink receives mid-stage snapshots, every opt.CheckpointEvery
	// iterations and on cancellation; nil takes none.
	sink func(*checkpoint.GPState)
	// resume re-enters the loop from a mid-stage snapshot.
	resume *checkpoint.GPState
	// eng is the workspace the stage resets; nil builds a fresh one.
	eng *engine
}

// reserveGP sizes the run's GP workspace for its largest stage, the
// input design's mGP: every movable cell and plan's fillers, over the
// input view's nets and pin slots, on that stage's grid. Coarse levels
// and later stages then work on prefixes of the same memory.
func (r *flowRun) reserveGP(plan fillerPlan) {
	d := r.d
	n, cells := len(r.movable)+plan.count, len(d.Cells)+plan.count
	m := r.opt.GridM
	if m == 0 {
		m = chooseGridM(d.Region, cells, d.MovableArea()+float64(plan.count)*plan.w*plan.h, n)
	}
	r.eng.reserve(n, cells, len(d.Nets), r.cv.NumPinSlots(), m)
	r.idx = reuse.Grow(r.idx, n)
}

// stageIdx lists a, then b, in the run's stage buffer, which the next
// call overwrites.
func (r *flowRun) stageIdx(a, b []int) []int {
	r.idx = reuse.Resize(r.idx, len(a)+len(b))
	copy(r.idx[copy(r.idx, a):], b)
	return r.idx
}

// gp runs one global-placement stage and maps every way it can end
// short onto the flow's error contract. The result is returned on all
// paths so callers can record a partial stage.
func (r *flowRun) gp(s gpStage) (Result, error) {
	if r.gpHook != nil {
		r.gpHook(s.name, false)
		defer r.gpHook(s.name, true)
	}
	s.golden, s.eng = r.golden, &r.eng
	// The sink wraps mid-stage GP snapshots with flow context. It is
	// installed whenever a manager exists — not only when a cadence is
	// set — because cancellation writes one final mid-stage snapshot
	// through it regardless of CheckpointEvery.
	if r.ckpt != nil && s.phase != "" {
		s.sink = func(gs *checkpoint.GPState) {
			st := r.snapshot(s.phase, s.level, s.cv)
			st.GP = gs
			if err := r.ckpt.Save(st); err != nil && r.ckptErr == nil {
				r.ckptErr = err
			}
		}
	}
	res, err := placeGlobal(r.ctx, s)
	switch {
	case err != nil:
		return res, err
	case r.ckptErr != nil:
		return res, r.ckptErr
	}
	switch res.Stop {
	case StopCanceled:
		return res, canceledAt(s.name)
	case StopDiverged:
		return res, fmt.Errorf("core: %s diverged", s.name)
	}
	return res, nil
}

// ensureRows builds placement rows on the input design when it has
// none, at the dominant movable standard-cell height.
func (r *flowRun) ensureRows() {
	if len(r.d.Rows) == 0 {
		if h := r.d.StdCellHeight(); h > 0 {
			legalize.BuildRows(r.d, h, 0)
		}
	}
}

// cdp runs the cDP tail (stage "cDP"): row legalization of the legal
// cells around every other cell as an obstacle, then discrete
// refinement of the refine cells, around every other cell likewise,
// with the run's workers, telemetry and golden trace, from the seeded
// start edit describes or, when it is nil, pricing every trial of the
// first pass. It returns the legalization's total and maximum
// displacement. With no cells to legalize or refine, it does nothing.
func (r *flowRun) cdp(legal, refine []int, edit *detail.Edit) (disp, maxDisp float64, err error) {
	d := r.d
	r.rec.SetStage("cDP")
	t0 := time.Now()
	if len(legal) == 0 && len(refine) == 0 {
		r.addStage("cDP", time.Since(t0))
		return 0, 0, nil
	}
	r.ensureRows()
	if len(d.Rows) == 0 {
		return 0, 0, fmt.Errorf("core: cannot infer row height")
	}
	tLG := time.Now()
	if len(legal) > 0 {
		if disp, maxDisp, err = legalize.Cells(d, legal, r.opt.Workers); err != nil {
			return 0, 0, fmt.Errorf("core: legalization failed: %w", err)
		}
	}
	r.rec.AddSpanTime("cDP", "legalize", time.Since(tLG))
	tDP := time.Now()
	r.sum.DP, err = detail.PlaceCompiled(r.cv, refine, edit,
		detail.Options{Workers: r.opt.Workers, Telemetry: r.rec, Golden: r.golden})
	if err != nil {
		return disp, maxDisp, fmt.Errorf("core: detail placement failed: %w", err)
	}
	r.rec.AddSpanTime("cDP", "detail", time.Since(tDP))
	r.addStage("cDP", time.Since(t0))
	return disp, maxDisp, nil
}

// summarize fills the result's HPWL, legality and digests from the
// design as it stands. final also rolls the finished layout over every
// movable into the headline "final" digest.
func (r *flowRun) summarize(final bool) {
	s := r.sum
	s.HPWL = r.d.HPWL()
	s.Legal = len(r.stdCells) == 0 || legalize.CheckLegal(r.d, r.stdCells) == nil
	if r.mixedSize && s.Legal {
		s.Legal = legalize.CheckMacrosLegal(r.d, r.movMacros) == nil
	}
	if final {
		r.golden.Absorb("final", 0, r.d.Positions(r.movable), s.HPWL, 0)
	}
	s.Digests = r.golden.Digests()
}

// finish closes a completed run: summary, final digest and the
// done-phase snapshot later runs (resume, ECO chaining) start from.
func (r *flowRun) finish() error {
	r.summarize(true)
	return r.save(checkpoint.PhaseDone, 0, r.cv)
}
