package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/detail"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/qp"
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
	// legalize.CheckLegal (and macros CheckMacrosLegal).
	Legal bool
	// DP is the cDP detail refinement's result.
	DP detail.Result

	// Stages lists every stage that ran, in execution order, with its
	// wall-clock time (Fig. 7). Reports should iterate this rather
	// than a hardcoded stage list so new stages cannot be dropped.
	Stages []StageSpan
	// StageTime indexes Stages by name.
	StageTime map[string]time.Duration

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
	// positions the snapshot holds.
	d  *netlist.Design
	fp uint64
	// cv is the one compiled view of d, lent to every stage that runs on
	// the input design (mIP, the GP stages, cDP). The Cell structs are the
	// truth between stages: each stage syncs the view on entry and writes
	// its result back to the structs before it returns.
	cv *netlist.Compiled
	// poisson is the normalized backend name stamped into every snapshot
	// and compared on resume: the backends produce numerically distinct
	// trajectories, so switching mid-run would break the
	// bitwise-reproducibility contract.
	poisson string
	// opt is the caller's global-placement configuration (workers, trace,
	// telemetry, golden trace), the base every GP stage derives from.
	opt    *Options
	rec    *telemetry.Recorder
	golden *telemetry.GoldenTrace
	ckpt   *checkpoint.Manager
	// ckptErr carries a failed mid-stage snapshot write out of the GP
	// iteration loop.
	ckptErr error

	// The movable sets as the input design has them, taken before any
	// stage pins cells (mLG fixes the macros it legalizes, ECO freezes
	// the cells it reuses).
	movable, stdCells, movMacros []int
	mixedSize                    bool

	// mgp is the finest-level mGP result: its iteration count and final
	// penalty seed cGP's (Sec. VI-B), so every snapshot carries them.
	mgp *Result
	sum *flowSummary
}

// newRun opens a run over d. The golden digest harness is always on:
// the engine absorbs one hash update per iteration (negligible next to
// a gradient evaluation) and every run gains a determinism fingerprint.
func newRun(ctx context.Context, d *netlist.Design, gp *Options, ckpt *checkpoint.Manager, sum *flowSummary) *flowRun {
	if gp.Golden == nil {
		gp.Golden = telemetry.NewGoldenTrace()
	}
	sum.StageTime = map[string]time.Duration{}
	r := &flowRun{
		ctx: ctx, d: d, fp: checkpoint.Fingerprint(d), cv: d.Compile(),
		poisson: poisson.NormalizeKind(gp.Poisson),
		opt:     gp, rec: gp.Telemetry, golden: gp.Golden, ckpt: ckpt,
		movable:   d.Movable(),
		stdCells:  d.MovableOf(netlist.StdCell),
		movMacros: d.MovableOf(netlist.Macro),
		mgp:       &Result{}, sum: sum,
	}
	r.mixedSize = len(r.movMacros) > 0
	return r
}

// addStage appends a completed stage to both the ordered list and the
// name index, and emits its span to telemetry.
func (r *flowRun) addStage(name string, d time.Duration) {
	r.sum.Stages = append(r.sum.Stages, StageSpan{Name: name, Time: d})
	r.sum.StageTime[name] = d
	r.rec.EmitSpan(name, "", d)
}

// snapshot assembles one full snapshot: the positions of level's design
// ld (holding numFillers fillers after its own cells) under the input
// design's identity.
func (r *flowRun) snapshot(phase string, level int, ld *netlist.Design, numFillers int) *checkpoint.State {
	st := &checkpoint.State{
		Phase:          phase,
		DesignName:     r.d.Name,
		Fingerprint:    r.fp,
		MixedSize:      r.mixedSize,
		Poisson:        r.poisson,
		MGPIterations:  r.mgp.Iterations,
		MGPFinalLambda: r.mgp.FinalLambda,
		Level:          level,
		Golden:         r.golden.State(),
	}
	st.CapturePositions(ld, numFillers)
	return st
}

// save persists one snapshot when a manager is installed. A requested
// checkpoint that cannot be written is an error, not a silent skip: the
// user asked for restartability.
func (r *flowRun) save(phase string, level int, ld *netlist.Design, numFillers int) error {
	if r.ckpt == nil {
		return nil
	}
	return r.ckpt.Save(r.snapshot(phase, level, ld, numFillers))
}

// boundary closes a stage: it persists the boundary snapshot, then
// honours a cancellation that arrived during the stage — in that order,
// so a canceled run is resumable from the boundary it stopped at.
func (r *flowRun) boundary(phase string, level int, ld *netlist.Design, numFillers int) error {
	if err := r.save(phase, level, ld, numFillers); err != nil {
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
	return res, r.boundary(checkpoint.PhasePostMIP, level, ld, 0)
}

// gpStage describes one global-placement stage to flowRun.gp.
type gpStage struct {
	// name is the stage label (telemetry, golden digest, errors).
	name string
	// phase labels the stage's mid-stage snapshots; "" writes none (an
	// interrupted ECO run restarts from its input).
	phase string
	// cv is the view of the design being placed, level its hierarchy
	// level, fillers the number of filler cells appended to it.
	cv      *netlist.Compiled
	level   int
	fillers int
	// idx are the cells the stage moves.
	idx []int
	opt Options
	// lambdaInit > 0 seeds the penalty factor; 0 balances it cold.
	lambdaInit float64
	// resume re-enters the loop from a mid-stage snapshot.
	resume *checkpoint.GPState
}

// gp runs one global-placement stage and maps every way it can end
// short onto the flow's error contract. The result is returned on all
// paths so callers can record a partial stage.
func (r *flowRun) gp(s gpStage) (Result, error) {
	// The sink wraps mid-stage GP snapshots with flow context. It is
	// installed whenever a manager exists — not only when a cadence is
	// set — because cancellation writes one final mid-stage snapshot
	// through it regardless of CheckpointEvery.
	s.opt.CheckpointSink = nil
	if r.ckpt != nil && s.phase != "" {
		s.opt.CheckpointSink = func(gs *checkpoint.GPState) {
			st := r.snapshot(s.phase, s.level, s.cv.Design(), s.fillers)
			st.GP = gs
			if err := r.ckpt.Save(st); err != nil && r.ckptErr == nil {
				r.ckptErr = err
			}
		}
	}
	s.opt.ResumeGP = s.resume
	res, err := placeGlobal(r.ctx, s.cv, s.idx, s.opt, s.name, s.lambdaInit)
	switch {
	case err != nil:
		return res, err
	case r.ckptErr != nil:
		return res, r.ckptErr
	case res.Canceled:
		return res, canceledAt(s.name)
	case res.Diverged:
		return res, fmt.Errorf("core: %s diverged", s.name)
	}
	return res, nil
}

// ensureRows builds placement rows on the input design when it has
// none, at the dominant movable standard-cell height.
func (r *flowRun) ensureRows() {
	if len(r.d.Rows) == 0 {
		if h := stdCellHeight(r.d); h > 0 {
			legalize.BuildRows(r.d, h, 0)
		}
	}
}

// cdp runs the cDP tail (stage "cDP"): row legalization of the legal
// cells, with the (movable) hold cells pinned at their current slots as
// obstacles meanwhile, then discrete refinement of the refine cells. It
// returns the legalization's total and maximum displacement.
func (r *flowRun) cdp(hold, legal, refine []int, dOpt detail.Options, skipDetail bool) (disp, maxDisp float64, err error) {
	d := r.d
	r.rec.SetStage("cDP")
	t0 := time.Now()
	r.ensureRows()
	if len(d.Rows) == 0 {
		return 0, 0, fmt.Errorf("core: cannot infer row height")
	}
	tLG := time.Now()
	for _, ci := range hold {
		d.Cells[ci].Fixed = true
	}
	if len(legal) > 0 {
		disp, maxDisp, err = legalize.CellsWorkers(d, legal, cdpLegalizer, r.opt.Workers)
	}
	// Unpin before refining: the detail passes must see the held cells
	// movable so they can improve them too.
	for _, ci := range hold {
		d.Cells[ci].Fixed = false
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: legalization failed: %w", err)
	}
	r.rec.AddSpanTime("cDP", "legalize", time.Since(tLG))
	if !skipDetail {
		if dOpt.Telemetry == nil {
			dOpt.Telemetry = r.rec
		}
		if dOpt.Workers == 0 {
			dOpt.Workers = r.opt.Workers
		}
		dOpt.Golden = r.golden
		tDP := time.Now()
		r.sum.DP, err = detail.PlaceCompiled(r.cv, refine, dOpt)
		if err != nil {
			return disp, maxDisp, fmt.Errorf("core: detail placement failed: %w", err)
		}
		r.rec.AddSpanTime("cDP", "detail", time.Since(tDP))
	}
	r.addStage("cDP", time.Since(t0))
	return disp, maxDisp, nil
}

// cdpLegalizer is the standard-cell row legalizer of every cDP tail.
const cdpLegalizer = legalize.Abacus

// summarize fills the result's HPWL, legality and digests from the
// design as it stands. final also rolls the finished layout over every
// movable into the headline "final" digest.
func (r *flowRun) summarize(final bool) {
	s := r.sum
	s.HPWL = r.d.HPWL()
	s.Legal = legalize.CheckLegal(r.d, r.stdCells) == nil
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
	return r.save(checkpoint.PhaseDone, 0, r.d, 0)
}

// stdCellHeight returns the dominant movable standard-cell height.
// Ties break toward the smaller height so the choice never depends on
// map iteration order (determinism contract: row construction feeds
// the final placement).
func stdCellHeight(d *netlist.Design) float64 {
	counts := map[float64]int{}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed && c.Kind == netlist.StdCell {
			counts[c.H]++
		}
	}
	bestH, bestN := 0.0, 0
	for h, n := range counts {
		if n > bestN || (n == bestN && (bestN == 0 || h < bestH)) {
			bestH, bestN = h, n
		}
	}
	return bestH
}
