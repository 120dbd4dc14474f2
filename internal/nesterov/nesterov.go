// Package nesterov implements the paper's nonlinear solver: Nesterov's
// method (Algorithm 1) with steplength predicted as the inverse
// Lipschitz constant (Eq. 10) and refined by the BkTrk backtracking of
// Algorithm 2. The conjugate-gradient solver ePlace compares against
// (Sec. V-A and footnote 2) lives with the baselines in
// internal/baseline/nonlinear.
//
// The solver is generic over the objective: the placement engine
// supplies a gradient callback (already preconditioned, Sec. V-D). The
// cost function may change between iterations (gamma and lambda are
// adjusted iteratively); the dynamic Lipschitz prediction is what makes
// that safe (Sec. V-B).
package nesterov

import (
	"math"

	"eplace/internal/parallel"
	"eplace/internal/reuse"
)

// GradFunc evaluates the (preconditioned) gradient of f at v into grad.
// It must not retain the slices.
type GradFunc func(v, grad []float64)

// ClampFunc restricts a solution vector to the feasible box in place.
type ClampFunc func(v []float64)

// bktrkEpsilon is the backtracking scale factor of Algorithm 2: BkTrk
// accepts a predicted steplength unless the measured one is more than
// 5% below it.
const bktrkEpsilon = 0.95

// maxBacktracks bounds the inner loop of Algorithm 2.
const maxBacktracks = 10

// Optimizer runs Nesterov's method with Lipschitz steplength prediction
// and backtracking. Start (or Restore) it, then call Step repeatedly; U holds
// the output solution u_k, which the paper returns as the final answer.
type Optimizer struct {
	// maxStep caps the predicted steplength to keep iterations sane when
	// successive gradients are nearly identical (1e9*seedStep).
	maxStep float64

	grad  GradFunc
	clamp ClampFunc

	// U and V are the two concurrently updated solutions u_k and v_k.
	U, V []float64
	// GradV is grad f_pre(v_k).
	GradV []float64

	// pred is the next Step's predicted steplength (see Step); a is a_k.
	pred, a float64

	// Workers shards Step's elementwise updates of the candidate pair;
	// <= 0 selects all cores (GOMAXPROCS), 1 runs them inline. Every
	// element is computed on its own and the reductions (norms, the
	// Lipschitz ratio) stay serial, so the iterates do not depend on it.
	Workers int

	// The candidate pair (u_{k+1}, v_{k+1}) and grad f_pre(v_{k+1}).
	uNext, vNext, gradNext []float64

	// Per-call inputs of the update tasks, and the tasks, bound once (see
	// reset).
	alpha, coeff float64
	uTask, vTask func(w, lo, hi int)

	steps      int
	backtracks int
}

// Start begins the optimizer at v0, reusing its vectors: each keeps its
// capacity and takes the prefix v0's length needs, and every one is
// written before it is read. The first prediction's v_{k-1} is a small
// descent perturbation of v0 with magnitude seedStep (use a fraction of
// a bin), held with its gradient in the candidate pair's vectors.
// clamp may be nil. The counters and the momentum coefficient restart;
// Workers is left as set. A zero Optimizer is ready for Start.
func (o *Optimizer) Start(v0 []float64, g GradFunc, clamp ClampFunc, seedStep float64) {
	o.reset(len(v0), g, clamp, seedStep)
	copy(o.U, v0)
	copy(o.V, v0)
	o.a, o.steps, o.backtracks = 1, 0, 0
	o.grad(o.V, o.GradV)
	gn := norm(o.GradV)
	if gn == 0 {
		gn = 1
	}
	scale := seedStep / gn
	for i := range o.vNext {
		o.vNext[i] = o.V[i] - scale*o.GradV[i]
	}
	if o.clamp != nil {
		o.clamp(o.vNext)
	}
	o.grad(o.vNext, o.gradNext)
	o.pred = o.lipschitzStep(o.V, o.vNext, o.GradV, o.gradNext)
}

// reset sizes the six vectors to n and sets the callbacks and the step
// cap; the callers write the vectors.
func (o *Optimizer) reset(n int, g GradFunc, clamp ClampFunc, seedStep float64) {
	for _, p := range o.vectors() {
		*p = reuse.Resize(*p, n)
	}
	o.maxStep, o.grad, o.clamp = 1e9*seedStep, g, clamp
	if o.uTask == nil { // a func passed to parallel.For escapes: bind once
		o.uTask, o.vTask = o.candidateRange, o.extrapolateRange
	}
}

// vectors lists the optimizer's six solution and gradient vectors.
func (o *Optimizer) vectors() [6]*[]float64 {
	return [6]*[]float64{&o.U, &o.V, &o.GradV, &o.uNext, &o.vNext, &o.gradNext}
}

// Reserve gives the six vectors the capacity of n coordinates, so that
// no later Start or Restore up to that length allocates one. Call it
// before a Start or Restore: it leaves the vectors for them to size.
func (o *Optimizer) Reserve(n int) {
	for _, p := range o.vectors() {
		*p = reuse.Grow(*p, n)
	}
}

// State is the complete serializable iteration state of an Optimizer:
// everything Step reads that is not re-derivable from the objective
// callbacks. Restoring a State with Restore and stepping produces a
// trajectory bitwise-identical to continuing the original optimizer —
// the contract the checkpoint/restart subsystem is built on.
type State struct {
	// U, V are the two concurrently updated solutions u_k and v_k; GradV
	// is the preconditioned gradient at V.
	U, V, GradV []float64
	// Alpha is the predicted steplength the next Step starts from: the
	// Eq. (10) ratio of (v_k, v_{k-1}), finite and non-negative.
	Alpha float64
	// A is the momentum coefficient a_k.
	A float64
	// Steps and Backtracks are the cumulative counters.
	Steps, Backtracks int
}

// State deep-copies the optimizer's iteration state.
func (o *Optimizer) State() State {
	return State{
		U:     append([]float64(nil), o.U...),
		V:     append([]float64(nil), o.V...),
		GradV: append([]float64(nil), o.GradV...),
		Alpha: o.pred,
		A:     o.a,
		Steps: o.steps, Backtracks: o.backtracks,
	}
}

// Restore continues a captured State without the seeding gradient
// evaluations Start performs: the state already holds the gradient at V
// and the prediction, so the next Step continues exactly where the
// captured run left off. s is copied into the reused vectors. seedStep
// must match the value passed to Start (it fixes maxStep); Workers is
// left as set.
func (o *Optimizer) Restore(s State, g GradFunc, clamp ClampFunc, seedStep float64) {
	o.reset(len(s.U), g, clamp, seedStep)
	copy(o.U, s.U)
	copy(o.V, s.V)
	copy(o.GradV, s.GradV)
	o.pred, o.a, o.steps, o.backtracks = s.Alpha, s.A, s.Steps, s.Backtracks
}

// candidateRange writes u_{k+1} = v_k - alpha*grad(v_k) (Alg. 1 line 2)
// over [lo, hi).
func (o *Optimizer) candidateRange(_, lo, hi int) {
	u, v, g, alpha := o.uNext[lo:hi], o.V[lo:hi], o.GradV[lo:hi], o.alpha
	for i := range u {
		u[i] = v[i] - alpha*g[i]
	}
}

// extrapolateRange writes v_{k+1} = u_{k+1} + coeff*(u_{k+1} - u_k)
// (Alg. 1 line 4) over [lo, hi).
func (o *Optimizer) extrapolateRange(_, lo, hi int) {
	vn, un, u, coeff := o.vNext[lo:hi], o.uNext[lo:hi], o.U[lo:hi], o.coeff
	for i := range vn {
		vn[i] = un[i] + coeff*(un[i]-u[i])
	}
}

// Steps returns the number of Step calls so far.
func (o *Optimizer) Steps() int { return o.steps }

// Backtracks returns the total number of extra gradient evaluations
// spent inside BkTrk (0 when every first check passes).
func (o *Optimizer) Backtracks() int { return o.backtracks }

// Step advances one iteration of Algorithm 1, returning the accepted
// steplength and the number of backtracks taken. When disableBkTrk is
// true the Lipschitz prediction is used unchecked (the ablation of
// Sec. V-C).
//
// The prediction is the Eq. (10) ratio of (v_k, v_{k-1}), which is
// Alg. 2's reference steplength of the candidate the Step before kept.
//
// Step allocates nothing: all iteration state lives in the buffers
// sized by Start or Restore, and the sharded updates run on parallel.For's
// persistent team, so a full placement iteration stays allocation-free
// as long as the callbacks do (the engine's gradient pipeline
// guarantees this at every worker count).
func (o *Optimizer) Step(disableBkTrk bool) (alpha float64, backtracks int) {
	n := len(o.V)
	workers := parallel.Count(o.Workers)
	aNext := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	coeff := (o.a - 1) / aNext

	if stationary(o.GradV) {
		// Stationary point: stay put but keep the recurrence moving so a
		// later objective change (lambda/gamma update) resumes cleanly.
		copy(o.uNext, o.V)
		copy(o.vNext, o.V)
		o.grad(o.vNext, o.gradNext)
		// v_{k+1} = v_k: lipschitzStep prices the pair at its cap whatever
		// the gradients, as it prices an empty pair, with no sweep.
		o.pred = o.lipschitzStep(nil, nil, nil, nil)
		o.commit(aNext)
		return 0, 0
	}

	alpha = o.pred
	for bt := 0; ; bt++ {
		// Candidate u_{k+1} and extrapolated v_{k+1} (Alg. 1 lines 2, 4).
		o.alpha, o.coeff = alpha, coeff
		parallel.For(workers, n, o.uTask)
		if o.clamp != nil {
			o.clamp(o.uNext)
		}
		parallel.For(workers, n, o.vTask)
		if o.clamp != nil {
			o.clamp(o.vNext)
		}
		o.grad(o.vNext, o.gradNext)
		// Reference steplength from the new pair (Alg. 2 line 2), the next
		// prediction if the candidate is kept. Accept unless it is more
		// than (1-bktrkEpsilon) below alpha — a genuine overestimate.
		o.pred = o.lipschitzStep(o.vNext, o.V, o.gradNext, o.GradV)
		if disableBkTrk || bt >= maxBacktracks || o.pred >= bktrkEpsilon*alpha {
			break
		}
		alpha = o.pred
		backtracks++
	}
	o.backtracks += backtracks
	o.commit(aNext)
	return alpha, backtracks
}

// commit makes the candidate pair and its gradient the current ones.
func (o *Optimizer) commit(aNext float64) {
	o.steps++
	o.U, o.uNext = o.uNext, o.U
	o.V, o.vNext = o.vNext, o.V
	o.GradV, o.gradNext = o.gradNext, o.GradV
	o.a = aNext
}

// lipschitzStep returns the Eq. (10) steplength ||dv|| / ||dg||, capped.
// The result is always finite: an infinite ratio (Inf dv with finite dg,
// which the NaN branch alone would let through) falls back to maxStep,
// and if maxStep itself is non-finite the step degrades to 0 (a no-op
// iteration) rather than poisoning the positions with Inf.
func (o *Optimizer) lipschitzStep(v, vp, g, gp []float64) float64 {
	var dv, dg float64
	for i := range v {
		d := v[i] - vp[i]
		dv += d * d
		e := g[i] - gp[i]
		dg += e * e
	}
	s := o.maxStep
	if dg != 0 {
		s = math.Sqrt(dv / dg)
	}
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 1) || s > o.maxStep {
		s = o.maxStep
	}
	if math.IsNaN(s) || math.IsInf(s, 1) {
		s = 0
	}
	return s
}

// stationary reports norm(g) == 0 without summing: a sum of squares is
// 0 exactly when every square is, and a NaN or infinite square makes it
// non-zero, so the scan stops at the first coordinate whose square is
// not 0 (a subnormal's square underflows to 0 in both).
func stationary(g []float64) bool {
	for _, v := range g {
		if v*v != 0 {
			return false
		}
	}
	return true
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
