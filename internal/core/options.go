// Package core implements the ePlace engine: the nonlinear objective
// f(v) = W~(v) + lambda*N(v) of Eq. (4) over the eDensity model, solved
// by Nesterov's method with Lipschitz steplength prediction, the
// approximate preconditioner of Sec. V-D, filler cells, the iterative
// gamma/lambda schedules, and the staged mixed-size flow
// mIP -> mGP -> mLG -> cGP -> cDP of Fig. 1.
package core

import (
	"io"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/telemetry"
)

// SolverKind selects the nonlinear optimizer.
type SolverKind uint8

const (
	// SolverNesterov is the paper's solver (Algorithms 1 and 2).
	SolverNesterov SolverKind = iota
	// SolverCG is conjugate gradient with line search: running the same
	// eDensity objective under CG reproduces the FFTPL predecessor the
	// paper compares against (footnote 2).
	SolverCG
)

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
	// StallIters is the stagnation window: the run stops (Stagnated)
	// when overflow has not improved for this many iterations (default
	// 150). Warm-started incremental runs use a short window — their
	// overflow starts near the grid's quantization floor, and waiting
	// out a long window just grinds lambda upward while wirelength
	// degrades.
	StallIters int
	// LambdaScale multiplies the auto-balanced initial penalty (default
	// 1, the paper's gradient-norm balance). A converged warm start
	// needs a large scale: balancing against the flat density field of
	// an already-spread layout re-enters the early-cGP regime, and the
	// unfrozen cells collapse onto their neighbors chasing wirelength
	// slack before the penalty recovers. Ignored when the caller passes
	// an absolute lambda.
	LambdaScale float64
	// Solver selects Nesterov (default) or the CG/FFTPL baseline.
	Solver SolverKind
	// Workers is the worker count for the per-iteration gradient
	// kernels (WA wirelength, eDensity rasterize/solve/force, spectral
	// Poisson transforms) and, through the flow, for the back end too:
	// the mLG state build, band-sharded row legalization, and the
	// region-parallel cDP passes. 0 uses all cores, 1 runs fully
	// serial. Results are bitwise-identical for every setting; only
	// wall-clock time changes.
	Workers int
	// Poisson selects the density model's Poisson backend by name
	// (poisson.Kinds: "spectral", "spectral32"); "" selects
	// spectral. Within one backend results are bitwise-identical across
	// worker counts; across backends they differ by the backend's
	// approximation error.
	Poisson string

	// DisableBkTrk turns off steplength backtracking (Sec. V-C ablation).
	DisableBkTrk bool
	// AdaptiveRestart enables momentum restarts in the Nesterov solver
	// (an extension beyond the paper; see nesterov.Optimizer).
	AdaptiveRestart bool
	// DisablePrecond turns off the preconditioner (Sec. V-D ablation).
	DisablePrecond bool
	// DisableFillerPhase skips cGP's 20-iteration filler-only placement
	// (Sec. VI-B ablation).
	DisableFillerPhase bool

	// Seed drives filler placement and any tie-breaking (default 1).
	Seed int64

	// Telemetry, when non-nil, receives per-iteration samples,
	// stage/kernel spans and counters for the whole flow (JSONL/CSV
	// sinks, a Trace, the live status endpoint). nil disables recording
	// at zero cost; results are bitwise-identical either way.
	Telemetry *telemetry.Recorder

	// Golden, when non-nil, absorbs every iteration's state (positions,
	// HPWL, lambda) into the per-stage rolling determinism digest.
	// Place installs one automatically; recording never influences
	// placement results.
	Golden *telemetry.GoldenTrace

	// CheckpointEvery > 0 makes the GP loop capture its in-flight state
	// every N iterations and hand it to CheckpointSink (Nesterov solver
	// only; the CG baseline checkpoints at stage boundaries only).
	CheckpointEvery int
	// CheckpointSink receives mid-stage GP snapshots; Place installs a
	// sink that wraps them with flow context and persists them via the
	// FlowOptions.Checkpoint manager. Called synchronously from the
	// iteration loop.
	CheckpointSink func(*checkpoint.GPState)
	// ResumeGP, when non-nil, re-enters the GP loop at the snapshot's
	// iteration instead of initializing gamma/lambda/optimizer from
	// scratch; the continued trajectory is bitwise-identical to the
	// uninterrupted run. Requires the Nesterov solver.
	ResumeGP *checkpoint.GPState
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
	if o.StallIters <= 0 {
		o.StallIters = 150
	}
	if o.LambdaScale <= 0 {
		o.LambdaScale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Result summarizes a global placement run.
type Result struct {
	Iterations int
	HPWL       float64
	Overflow   float64
	// Diverged reports that the run was aborted and rolled back to the
	// best snapshot (the failure mode of the Sec. V-C/V-D ablations).
	Diverged bool
	// Stagnated reports that overflow stopped improving long before the
	// target (typically an infeasible density bound); the best snapshot
	// was returned.
	Stagnated bool
	// Canceled reports that the run was stopped by context cancellation
	// before reaching its stopping criterion. When a CheckpointSink was
	// installed, a final mid-stage snapshot was written first, so the
	// run is resumable from exactly where it stopped.
	Canceled bool
	// Backtracks is the total BkTrk count (Nesterov only).
	Backtracks int
	// Restarts is the adaptive-restart count (Nesterov only).
	Restarts int
	// Timing breakdown (Fig. 7).
	DensityTime    time.Duration
	WirelengthTime time.Duration
	OtherTime      time.Duration
	Total          time.Duration
	// CostEvals counts objective evaluations (CG line search only).
	CostEvals int
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

// WriteCSV emits the trace as CSV (stage,iter,hpwl,tau,energy,lambda,
// gamma,alpha,backtracks), the raw data behind Figure 2. It adapts
// onto the telemetry CSV sink so the two formats cannot drift.
func (t *Trace) WriteCSV(w io.Writer) error {
	return telemetry.WriteSamplesCSV(w, t.Samples)
}
