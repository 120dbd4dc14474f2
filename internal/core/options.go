// Package core implements the ePlace engine: the nonlinear objective
// f(v) = W~(v) + lambda*N(v) of Eq. (4) over the eDensity model, solved
// by Nesterov's method with Lipschitz steplength prediction, the
// approximate preconditioner of Sec. V-D, filler cells, the iterative
// gamma/lambda schedules, and the staged mixed-size flow
// mIP -> mGP -> mLG -> cGP -> cDP of Fig. 1.
package core

import "eplace/internal/telemetry"

// Options configures a global placement run.
type Options struct {
	// GridM is the bin-grid size per side; 0 picks grid.ChooseM.
	GridM int
	// TargetOverflow is the stopping density overflow tau (default 0.10).
	TargetOverflow float64
	// MaxIters bounds the solver iterations (default 3000, as the paper).
	MaxIters int
	// MinIters prevents spurious early stops (default 20).
	MinIters int
	// Workers is the worker count for the per-iteration gradient
	// kernels (WA wirelength, eDensity rasterize/solve/force, spectral
	// Poisson transforms) and, through the flow, for the back end too:
	// the mLG state build, band-sharded row legalization, and the
	// region-parallel cDP passes. 0 uses all cores, 1 runs fully
	// serial. Results are bitwise-identical for every setting; only
	// wall-clock time changes.
	Workers int
	// Poisson is "" or poisson.KindSpectral32, which both select the one
	// Poisson solver; any other value fails the run before a stage
	// starts (poisson.ValidateKind). The field stays only because the
	// benchmark module sets it. It goes in the next benchmark change,
	// together with eco.PlanOptions.
	Poisson string

	// DisableBkTrk turns off steplength backtracking (Sec. V-C ablation).
	DisableBkTrk bool
	// DisablePrecond turns off the preconditioner (Sec. V-D ablation).
	DisablePrecond bool
	// DisableFillerPhase skips cGP's 20-iteration filler-only placement
	// (Sec. VI-B ablation).
	DisableFillerPhase bool

	// Telemetry, when non-nil, receives per-iteration samples,
	// stage/kernel spans and counters for the whole flow (JSONL/CSV
	// sinks, a Trace, the live status endpoint). nil disables recording
	// at zero cost; results are bitwise-identical either way.
	Telemetry *telemetry.Recorder

	// CheckpointEvery > 0 makes the flow's GP loops snapshot their
	// in-flight state every N iterations through FlowOptions.Checkpoint.
	CheckpointEvery int
}

func (o *Options) defaults() {
	if o.TargetOverflow <= 0 {
		o.TargetOverflow = 0.10
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 3000
	}
	if o.MinIters <= 0 {
		o.MinIters = 20
	}
}

// Why a global placement stage stopped (Result.Stop).
const (
	// StopTargetOverflow: overflow reached TargetOverflow after at least
	// MinIters iterations (or the stage had no cells to move).
	StopTargetOverflow = "target-overflow"
	// StopIterationCap: the stage ran MaxIters iterations.
	StopIterationCap = "iteration-cap"
	// StopStall: overflow had not improved for the stall window
	// (typically an infeasible density bound); the best snapshot was
	// returned.
	StopStall = "stall"
	// StopDiverged: HPWL blew up or went NaN; the run was rolled back to
	// the best snapshot (the failure mode of the Sec. V-C/V-D ablations).
	StopDiverged = "diverged"
	// StopCanceled: context cancellation stopped the run before its
	// stopping criterion. Inside a flow with a checkpoint manager, a
	// final mid-stage snapshot was written first, so the run is
	// resumable from exactly where it stopped.
	StopCanceled = "canceled"
)

// Result summarizes a global placement run.
type Result struct {
	Iterations int
	HPWL       float64
	// Overflow is τ at the adopted layout u, after the final clamp.
	Overflow float64
	// StopOverflow is τ as the last stop test read it: at the point v of
	// the iteration's last gradient, before the step moved on to u. On
	// the finest grid the two agree closely; a coarse V-cycle level can
	// stop on StopOverflow <= its target with Overflow well above it.
	StopOverflow float64
	// Stop is the reason the iteration loop ended (a Stop* constant).
	Stop string
	// Backtracks is the total BkTrk count. The stage's kernel times are
	// telemetry spans (Options.Telemetry): "<stage>/density",
	// "<stage>/wirelength" and the others placeGlobal records.
	Backtracks int
	// FinalLambda is the penalty factor at termination (used to seed cGP).
	FinalLambda float64
}

// Sample is one iteration record for Figures 2 and 3, shared with the
// telemetry subsystem (the JSONL schema lives there).
type Sample = telemetry.Sample

// Trace accumulates per-iteration samples across stages. It is a
// telemetry.Sink: pass Telemetry: telemetry.New(tr) to collect a run.
type Trace struct {
	Samples []Sample
}

// Sample appends a sample.
func (t *Trace) Sample(s Sample) { t.Samples = append(t.Samples, s) }

// Span and Close do nothing: a Trace keeps samples only.
func (t *Trace) Span(telemetry.SpanRecord) {}
func (t *Trace) Close() error              { return nil }

// Stage returns the samples belonging to one stage label.
func (t *Trace) Stage(name string) []Sample {
	var out []Sample
	for _, s := range t.Samples {
		if s.Stage == name {
			out = append(out, s)
		}
	}
	return out
}
