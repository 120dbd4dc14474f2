package core

import (
	"context"
	"math"
	"slices"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/density"
	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/nesterov"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// engine evaluates f = W~ + lambda*N and its preconditioned gradient
// for one set of movable cells.
type engine struct {
	d *netlist.Design
	// cv is the compiled CSR/SoA view shared by the wirelength model,
	// the density model and the loop's HPWL evaluation. The engine
	// writes candidate positions into it once per evaluation
	// (cv.SetPositions); the Cell structs are only written back when the
	// stage finishes.
	cv  *netlist.Compiled
	idx []int
	wl  *wirelength.Model
	dm  *density.Model
	opt Options

	lambda float64
	gamma  float64

	// Per-cell constants for the preconditioner: vertex degree |E_i| and
	// normalized charge q_i / binArea (Sec. V-D).
	degree []float64
	qNorm  []float64

	// Per-cell half sizes for clamping.
	halfW, halfH []float64

	gw, gd []float64 // wirelength and density gradient scratch
	posBuf []float64 // end-of-stage clamp buffer (avoids Positions alloc)

	// live is the wirelength model's live-net list: the nets with a pin
	// on a cell the stage moves. Every other net of degree >= 2 is dead
	// for the stage, and deadHPWL[i] is net deadNet[i]'s HPWL, taken once
	// when the engine is built (see hpwl).
	live     []int32
	deadNet  []int32
	deadHPWL []float64

	stage string

	// rec aggregates the per-kernel wall times as telemetry spans
	// (stage/wirelength, stage/density — the Fig. 7 breakdown). It is
	// never nil: when the caller disables telemetry, PlaceGlobal
	// substitutes a private sink-less recorder so Result timings stay
	// populated.
	rec *telemetry.Recorder
}

// poissonSpan is the kernel span of the Poisson solve, which the density
// span contains. Traces and the benchmark's "poisson/" prefix match read
// it by this name.
const poissonSpan = "poisson/" + poisson.KindSpectral32

// newEngine builds the stage's models over cv, which the caller has
// synced after fillers fixed the topology and extents for the whole
// stage; every hot kernel below shares it.
func newEngine(cv *netlist.Compiled, idx []int, opt Options, rec *telemetry.Recorder) (*engine, error) {
	d := cv.Design()
	m := opt.GridM
	if m == 0 {
		m = grid.ChooseM(len(d.Cells))
		// eDensity wants bins no finer than the objects themselves: a
		// bin smaller than the average movable cell rasterizes single
		// cells into isolated spikes whose local forces push cells back
		// and forth between adjacent bins instead of spreading them
		// (observed as an overflow plateau with unbounded wirelength
		// growth on 10K+ cell auto-gridded runs). Coarsen until one bin
		// holds at least one average movable object.
		var area float64
		n := 0
		for i := range d.Cells {
			if !d.Cells[i].Fixed {
				area += d.Cells[i].W * d.Cells[i].H
				n++
			}
		}
		if n > 0 {
			avg := area / float64(n)
			for m > 16 && d.Region.W()*d.Region.H()/float64(m*m) < avg {
				m /= 2
			}
		}
	}
	dm, err := density.NewModelCompiled(cv, m, opt.Workers, opt.Poisson)
	if err != nil {
		return nil, err
	}
	e := &engine{
		d:      d,
		cv:     cv,
		idx:    idx,
		wl:     wirelength.NewCompiled(cv, idx, 1),
		dm:     dm,
		opt:    opt,
		rec:    rec,
		degree: make([]float64, len(idx)),
		qNorm:  make([]float64, len(idx)),
		halfW:  make([]float64, len(idx)),
		halfH:  make([]float64, len(idx)),
		gw:     make([]float64, 2*len(idx)),
		gd:     make([]float64, 2*len(idx)),
		posBuf: make([]float64, 2*len(idx)),
	}
	e.wl.Workers = opt.Workers
	binArea := e.dm.Grid.BinArea()
	for k, ci := range idx {
		c := &d.Cells[ci]
		// |E_i| counts distinct nets: a net is new unless an earlier pin
		// of the cell (a short range) is on it too.
		nets := cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]]
		for i, ni := range nets {
			if !slices.Contains(nets[:i], ni) {
				e.degree[k]++
			}
		}
		e.qNorm[k] = c.Area() / binArea
		e.halfW[k] = c.W / 2
		e.halfH[k] = c.H / 2
	}
	e.cacheDeadHPWL()
	return e, nil
}

// cacheDeadHPWL lists the stage's dead nets with their HPWL. A dead net
// has no pin on a cell the stage moves, and those are the only cells
// whose view positions change within a stage, so its HPWL is a constant
// until the stage ends.
func (e *engine) cacheDeadHPWL() {
	cv := e.cv
	e.live = e.wl.LiveNets()
	multiPin := 0 // nets of degree >= 2, live or dead
	for ni := range cv.NetW {
		if cv.NetOff[ni+1]-cv.NetOff[ni] >= 2 {
			multiPin++
		}
	}
	e.deadNet = make([]int32, 0, multiPin-len(e.live))
	e.deadHPWL = make([]float64, 0, multiPin-len(e.live))
	j := 0
	for ni := range cv.NetW {
		switch {
		case j < len(e.live) && int(e.live[j]) == ni:
			j++
		case cv.NetOff[ni+1]-cv.NetOff[ni] >= 2:
			e.deadNet = append(e.deadNet, int32(ni))
			e.deadHPWL = append(e.deadHPWL, cv.NetHPWL(ni))
		}
	}
}

// hpwl returns the view's HPWL bit for bit as cv.HPWL() does, pricing
// only the live nets: the dead nets' cached values merge into the same
// net-order sum. Nets of degree < 2 add an exact +0, which leaves a sum
// that starts at +0 unchanged, so they are skipped.
func (e *engine) hpwl() float64 {
	total, i := 0.0, 0
	for _, ni := range e.live {
		for ; i < len(e.deadNet) && e.deadNet[i] < ni; i++ {
			total += e.deadHPWL[i]
		}
		total += e.cv.NetHPWL(int(ni))
	}
	for _, h := range e.deadHPWL[i:] {
		total += h
	}
	return total
}

// clamp keeps every cell's center inside the region, respecting size.
func (e *engine) clamp(v []float64) {
	n := len(e.idx)
	r := e.d.Region
	for k := 0; k < n; k++ {
		v[k] = geom.Clamp(v[k], r.Lx+e.halfW[k], r.Hx-e.halfW[k])
		v[k+n] = geom.Clamp(v[k+n], r.Ly+e.halfH[k], r.Hy-e.halfH[k])
	}
}

// gradient evaluates the preconditioned gradient of f at v.
func (e *engine) gradient(v, g []float64) {
	e.cv.SetPositions(e.idx, v)
	t0 := time.Now()
	e.wl.CostAndGradient(e.gw)
	e.rec.AddSpanTime(e.stage, "wirelength", time.Since(t0))
	t0 = time.Now()
	e.dm.Refresh(e.idx)
	e.dm.Gradient(e.idx, e.gd)
	e.rec.AddSpanTime(e.stage, "density", time.Since(t0))
	e.rec.AddSpanTime(e.stage, poissonSpan, e.dm.LastSolveTime())
	e.rec.Count("engine/grad_evals", 1)

	n := len(e.idx)
	for k := 0; k < n; k++ {
		p := 1.0
		if !e.opt.DisablePrecond {
			// H~_f = |E_i| + lambda * q_i (Eq. 11-13), floored to stay
			// positive definite for isolated cells at tiny lambda.
			p = e.degree[k] + e.lambda*e.qNorm[k]
			if p < 1e-4 {
				p = 1e-4
			}
		}
		g[k] = (e.gw[k] + e.lambda*e.gd[k]) / p
		g[k+n] = (e.gw[k+n] + e.lambda*e.gd[k+n]) / p
	}
}

// cost evaluates f at v (CG baseline only; Nesterov never needs it).
func (e *engine) cost(v []float64) float64 {
	e.cv.SetPositions(e.idx, v)
	t0 := time.Now()
	w := e.wl.Cost()
	e.rec.AddSpanTime(e.stage, "wirelength", time.Since(t0))
	t0 = time.Now()
	e.dm.Refresh(e.idx)
	e.rec.AddSpanTime(e.stage, "density", time.Since(t0))
	e.rec.Count("engine/cost_evals", 1)
	return w + e.lambda*e.dm.Energy()
}

// initLambda balances the initial wirelength and density gradient norms
// (sum of absolute values), the standard ePlace initialization, and
// multiplies the balance by scale (see gpStage.lambdaScale).
func (e *engine) initLambda(v []float64, scale float64) {
	e.cv.SetPositions(e.idx, v)
	e.wl.CostAndGradient(e.gw)
	e.dm.Refresh(e.idx)
	e.dm.Gradient(e.idx, e.gd)
	var sw, sd float64
	for i := range e.gw {
		sw += math.Abs(e.gw[i])
		sd += math.Abs(e.gd[i])
	}
	if sd == 0 {
		e.lambda = 1
		return
	}
	e.lambda = sw / sd
	if e.lambda <= 0 {
		e.lambda = 1
	}
	if scale > 0 {
		e.lambda *= scale
	}
}

// updateGamma applies the overflow-driven smoothing schedule
// gamma = 8 * binW * 10^{(tau - 0.1) * 20/9 - 1}: ~80 bins of smoothing
// at tau=1 down to ~0.8 at tau=0.1.
func (e *engine) updateGamma(tau float64) {
	bw := math.Min(e.dm.Grid.BinW, e.dm.Grid.BinH)
	e.gamma = 8 * bw * math.Pow(10, (tau-0.1)*20/9-1)
	e.wl.Gamma = e.gamma
}

// refDeltaHPWLFrac is the HPWL-change reference of the lambda schedule,
// as a fraction of the current HPWL (ePlace uses the absolute 3.5e5 on
// ~1e8 ISPD wirelengths).
const refDeltaHPWLFrac = 0.01

// PlaceGlobal runs one global placement (the mGP or cGP loop) over the
// movable cells idx of d, which must already hold the starting
// positions. lambdaInit <= 0 selects automatic balancing. It returns
// the result; final positions are written back to d. It errors without
// touching d on an invalid configuration (a Poisson name other than ""
// or spectral32, a bad grid size).
func PlaceGlobal(d *netlist.Design, idx []int, opt Options, stage string, lambdaInit float64) (Result, error) {
	return placeGlobal(context.Background(), gpStage{name: stage, cv: d.Compile(), idx: idx, opt: opt, lambdaInit: lambdaInit})
}

// placeGlobal runs stage s over its caller-owned view of the design,
// which it syncs from the Cell structs on entry. Inside a flow, a
// canceled stage first hands a final mid-stage snapshot to s.sink
// (regardless of the CheckpointEvery cadence, so the very latest state
// is resumable); a resume from that snapshot continues the trajectory
// bitwise-identically to the uninterrupted run.
func placeGlobal(ctx context.Context, s gpStage) (Result, error) {
	opt, stage, cv, idx := s.opt, s.name, s.cv, s.idx
	opt.defaults()
	if s.stallIters <= 0 {
		s.stallIters = stallIters
	}
	d := cv.Design()
	start := time.Now()
	var res Result
	if len(idx) == 0 {
		res.HPWL = d.HPWL()
		res.Stop = StopTargetOverflow
		return res, nil
	}
	// The engine always records kernel spans; a private sink-less
	// recorder stands in when telemetry is disabled so the Result's
	// Fig. 7 timing breakdown stays derivable from spans either way.
	rec := opt.Telemetry
	if rec == nil {
		rec = telemetry.New()
	}
	rec.SetStage(stage)
	wl0 := rec.SpanTime(stage, "wirelength")
	den0 := rec.SpanTime(stage, "density")
	prevWL, prevDen := wl0, den0
	// gradTime is the stage's time inside the two gradient kernels so far
	// (the density span contains the Poisson span).
	gradTime := func() time.Duration {
		return rec.SpanTime(stage, "wirelength") + rec.SpanTime(stage, "density")
	}
	cv.Sync()
	e, err := newEngine(cv, idx, opt, rec)
	if err != nil {
		return res, err
	}
	e.stage = stage

	seedStep := 0.1 * math.Min(e.dm.Grid.BinW, e.dm.Grid.BinH)

	var stepNesterov func() (float64, int)
	var solution func() []float64
	var opt2 *nesterov.Optimizer
	var cg *nesterov.CGSolver
	var hpwl0, prevHPWL float64
	var best []float64
	var bestTau float64
	bestTauIter := 0
	iterStart := 0

	if rs := s.resume; rs != nil && opt.Solver == SolverNesterov {
		// Resume: every schedule scalar and optimizer vector comes from
		// the snapshot, and the whole init path (tau0, gamma, lambda
		// balancing, the optimizer's seeding gradient evaluations) is
		// skipped — the loop re-enters at iteration rs.Iter with exactly
		// the state the captured run had there, so the continued
		// trajectory is bitwise-identical to the uninterrupted one.
		e.lambda, e.gamma = rs.Lambda, rs.Gamma
		e.wl.Gamma = e.gamma
		hpwl0, prevHPWL = rs.HPWL0, rs.PrevHPWL
		best = append([]float64(nil), rs.Best...)
		bestTau, bestTauIter = rs.BestTau, rs.BestTauIter
		iterStart = rs.Iter
		opt2 = nesterov.Resume(rs.Nesterov, e.gradient, e.clamp, seedStep)
		stepNesterov = func() (float64, int) { return opt2.Step(opt.DisableBkTrk) }
		solution = func() []float64 { return opt2.U }
	} else {
		v0 := d.Positions(idx)
		e.clamp(v0)
		tau0 := func() float64 {
			e.cv.SetPositions(e.idx, v0)
			e.dm.Refresh(e.idx)
			return e.dm.Overflow(d.TargetDensity)
		}()
		e.updateGamma(tau0)
		if s.lambdaInit > 0 {
			e.lambda = s.lambdaInit
		} else {
			e.initLambda(v0, s.lambdaScale)
		}

		// HPWL of the clamped start, from the view (the structs still
		// hold the unclamped input until the end-of-stage write-back).
		hpwl0 = e.hpwl()
		prevHPWL = hpwl0

		if opt.Solver == SolverNesterov {
			opt2 = nesterov.New(v0, e.gradient, e.clamp, seedStep)
			stepNesterov = func() (float64, int) { return opt2.Step(opt.DisableBkTrk) }
			solution = func() []float64 { return opt2.U }
		} else {
			cg = nesterov.NewCG(v0, e.cost, e.gradient, e.clamp, seedStep*10)
			// Every objective evaluation costs a full Poisson solve; keep
			// failed line searches from burning twenty of them — and let a
			// cancellation abort a search mid-flight instead of paying for
			// the remaining trials.
			cg.MaxTrials = 10
			cg.Interrupt = func() bool { return ctx.Err() != nil }
			stepNesterov = func() (float64, int) { return cg.Step(), 0 }
			solution = func() []float64 { return cg.V }
		}

		// Divergence guard: remember the best (lowest-overflow) solution.
		best = append([]float64(nil), v0...)
		bestTau = tau0
	}

	// Divergence threshold. 20x the starting HPWL catches blow-ups on
	// small designs, but under-shoots at scale: a quadratic seed
	// collapses everything near the pads, so legitimate spreading alone
	// multiplies HPWL by far more than 20x on 10K+ cell designs (and by
	// more still on coarse cluster netlists, whose few long nets spread
	// to a large fraction of the region). Floor the threshold at half
	// the geometric ceiling (every net spanning the whole region) — a
	// clamped blow-up slams into the walls near the ceiling, while real
	// trajectories stay under a third of it (a uniformly random layout);
	// stalls below the threshold are caught by the stagnation guard.
	divergeHPWL := 20 * math.Max(hpwl0, 1)
	var wSum float64
	for _, w := range cv.NetW {
		wSum += w
	}
	if b := 0.5 * wSum * (d.Region.Hx - d.Region.Lx + d.Region.Hy - d.Region.Ly); b > divergeHPWL {
		divergeHPWL = b
	}

	// A loop that runs out of iterations stops at the cap; every break
	// below names its own reason.
	res.Stop = StopIterationCap
	iter := iterStart
	for ; iter < opt.MaxIters; iter++ {
		// Cooperative cancellation, checked once per iteration. The state
		// here is exactly what the next iteration would read (the same
		// cut a cadence checkpoint takes at the bottom of the loop), so
		// the snapshot resumes bitwise-identically. The CG baseline has
		// no capturable recurrence: it cancels without a mid-stage
		// snapshot and falls back to the last stage boundary.
		if ctx.Err() != nil {
			res.Stop = StopCanceled
			if s.sink != nil && opt2 != nil {
				s.sink(&checkpoint.GPState{
					Stage: stage, Iter: iter,
					Lambda: e.lambda, Gamma: e.gamma,
					PrevHPWL: prevHPWL, HPWL0: hpwl0,
					Best:    append([]float64(nil), best...),
					BestTau: bestTau, BestTauIter: bestTauIter,
					Nesterov: opt2.State(),
				})
			}
			break
		}
		// Three kernel spans say what an iteration spends outside the two
		// gradients. "nesterov" is the step less the gradient time inside
		// it: the optimizer's vector passes, the clamps, the preconditioner.
		t0, g0 := time.Now(), gradTime()
		alpha, bt := stepNesterov()
		rec.AddSpanTime(stage, "nesterov", time.Since(t0)-(gradTime()-g0))

		t0 = time.Now()
		u := solution()
		e.cv.SetPositions(e.idx, u)
		hpwl := e.hpwl()
		rec.AddSpanTime(stage, "hpwl", time.Since(t0))
		tau := e.dm.Overflow(d.TargetDensity) // from the latest Refresh

		if tau <= bestTau {
			bestTau = tau
			bestTauIter = iter
			copy(best, u)
		}
		// Roll this iteration's exact state into the stage's golden
		// digest (lambda here is the value the iteration's gradient
		// used, before the schedule update below).
		t0 = time.Now()
		s.golden.Absorb(stage, iter, u, hpwl, e.lambda)
		rec.AddSpanTime(stage, "digest", time.Since(t0))
		if opt.Telemetry.Active() {
			smp := Sample{
				Stage: stage, Iteration: iter,
				HPWL: hpwl, Overflow: tau, Energy: e.dm.Energy(),
				Lambda: e.lambda, Gamma: e.gamma, Alpha: alpha, Backtracks: bt,
				GradWL: sumAbs(e.gw), GradDensity: sumAbs(e.gd),
			}
			if opt2 != nil {
				smp.Steps = opt2.Steps()
			} else {
				smp.Steps = cg.Steps()
			}
			wlNow := rec.SpanTime(stage, "wirelength")
			denNow := rec.SpanTime(stage, "density")
			smp.WirelengthTime = wlNow - prevWL
			smp.DensityTime = denNow - prevDen
			prevWL, prevDen = wlNow, denNow
			opt.Telemetry.Sample(smp)
		}

		if math.IsNaN(hpwl) || hpwl > divergeHPWL {
			res.Stop = StopDiverged
			break
		}
		if tau <= opt.TargetOverflow && iter >= opt.MinIters {
			res.Stop = StopTargetOverflow
			iter++
			break
		}
		// Stagnation: overflow has not improved for many iterations —
		// the target is unreachable (e.g. infeasible density bound).
		// Return the best snapshot instead of grinding lambda upward
		// until wirelength explodes.
		if iter-bestTauIter > s.stallIters && iter >= opt.MinIters {
			res.Stop = StopStall
			break
		}

		// Penalty schedule: mu = 1.1^{1 - dHPWL/ref} clamped to
		// [0.95, 1.1], with the reference wirelength change a fixed
		// fraction of the current HPWL.
		refDelta := refDeltaHPWLFrac * math.Max(hpwl, 1)
		mu := math.Pow(1.1, math.Max(-3, math.Min(1, 1-(hpwl-prevHPWL)/refDelta)))
		if mu < 0.95 {
			mu = 0.95
		}
		if mu > 1.1 {
			mu = 1.1
		}
		e.lambda *= mu
		prevHPWL = hpwl
		e.updateGamma(tau)

		// Crash-safe snapshot of the loop state at this iteration
		// boundary (everything the next iteration reads), aligned to
		// absolute iteration numbers so a resumed run checkpoints at the
		// same points as an uninterrupted one. Nesterov only: the CG
		// baseline has no capturable recurrence and falls back to
		// stage-boundary checkpoints.
		if s.sink != nil && opt.CheckpointEvery > 0 && opt2 != nil &&
			(iter+1)%opt.CheckpointEvery == 0 {
			s.sink(&checkpoint.GPState{
				Stage: stage, Iter: iter + 1,
				Lambda: e.lambda, Gamma: e.gamma,
				PrevHPWL: prevHPWL, HPWL0: hpwl0,
				Best:    append([]float64(nil), best...),
				BestTau: bestTau, BestTauIter: bestTauIter,
				Nesterov: opt2.State(),
			})
		}
	}

	// Adopt the best snapshot if we diverged or stagnated past it,
	// clamp it, and write it back to both the structs (the caller's
	// source of truth between stages) and the view (for the final
	// Refresh/HPWL below).
	final := solution()
	if res.Stop == StopDiverged || res.Stop == StopStall {
		final = best
	}
	copy(e.posBuf, final)
	e.clamp(e.posBuf)
	e.d.SetPositions(e.idx, e.posBuf)
	e.cv.SetPositions(e.idx, e.posBuf)

	e.dm.Refresh(e.idx)
	res.Iterations = iter
	res.HPWL = e.hpwl()
	res.Overflow = e.dm.Overflow(d.TargetDensity)
	// How much of the netlist the stage's wirelength evaluations priced.
	rec.Count("wirelength/nets_priced", e.wl.NetsPriced())
	res.FinalLambda = e.lambda
	// Run statistics come from the optimizer accessors rather than
	// per-step mirroring.
	if opt2 != nil {
		res.Backtracks = opt2.Backtracks()
	}
	if cg != nil {
		res.CostEvals = cg.CostEvals()
	}
	res.DensityTime = rec.SpanTime(stage, "density") - den0
	res.WirelengthTime = rec.SpanTime(stage, "wirelength") - wl0
	res.Total = time.Since(start)
	res.OtherTime = res.Total - res.DensityTime - res.WirelengthTime
	return res, nil
}

// sumAbs returns the L1 norm of x (gradient magnitudes for samples).
func sumAbs(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}
