package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"eplace/internal/density"
	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/nesterov"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/poisson"
	"eplace/internal/reuse"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// engine evaluates f = W~ + lambda*N and its preconditioned gradient
// for one set of movable cells, at the λ and γ of its schedule. It is
// also the workspace of the stages of one placement: a flow keeps one
// engine, and each GP stage resets it (see reset), so that the models,
// the optimizer and the per-cell vectors of a stage reuse the memory of
// the stages before it.
type engine struct {
	d *netlist.Design
	// cv is the compiled CSR/SoA view shared by the wirelength model,
	// the density model and the loop's HPWL evaluation. The engine
	// writes candidate positions into it once per evaluation
	// (cv.SetPositions) and the stage's result when it finishes.
	cv *netlist.Compiled
	// region is where the stage places: the design's region, or an ECO
	// window inside it.
	region geom.Rect
	idx    []int
	wl     wirelength.Model
	dm     density.Model
	nest   nesterov.Optimizer
	opt    Options
	sch    schedule

	// Per-cell constants for the preconditioner (Sec. V-D): vertex
	// degree |E_i| and charge q_i, the cell's area (per bin area on a
	// binCharge stage, see gpStage.binCharge).
	degree []float64
	qNorm  []float64

	// Per-cell half sizes for clamping.
	halfW, halfH []float64

	gd []float64 // density gradient scratch (see gradient)
	// best holds the stage's start, then its best snapshot (sch.Best).
	best []float64
	// The last gradient's two L1 norms, for telemetry samples.
	gradWL, gradDensity float64
	// still marks the cells the stage holds with the fixed ones
	// (Compiled.FixedOrHeldInto).
	still []bool

	// workers shards the elementwise loops (clampRange, combineRange);
	// out is their per-call vector. The tasks and the optimizer's
	// callbacks are method values bound once: a func passed to
	// parallel.For escapes, so binding per call would allocate.
	workers                int
	out                    []float64
	combineTask, clampTask func(w, lo, hi int)
	gradFn                 nesterov.GradFunc
	clampFn                nesterov.ClampFunc

	// live is the wirelength model's live-net list: the nets with a pin
	// on a cell the stage moves. Every other net of degree >= 2 is dead
	// for the stage, and deadHPWL[i] is net deadNet[i]'s HPWL, taken once
	// when the engine is reset (see hpwl).
	live     []int32
	deadNet  []int32
	deadHPWL []float64

	stage string

	// rec aggregates the per-kernel wall times as telemetry spans
	// (stage/wirelength, stage/density — the Fig. 7 breakdown); nil
	// records nothing.
	rec *telemetry.Recorder
}

// chooseGridM picks the density grid of a stage placing objects cells
// in region, n of them movable with total area movArea: grid.ChooseM's
// power of two, coarsened until one bin holds an average movable object.
// eDensity wants bins no finer than the objects themselves: a bin
// smaller than the average movable cell rasterizes single cells into
// isolated spikes whose local forces push cells back and forth between
// adjacent bins instead of spreading them (observed as an overflow
// plateau with unbounded wirelength growth on 10K+ cell auto-gridded
// runs).
func chooseGridM(region geom.Rect, objects int, movArea float64, n int) int {
	m := grid.ChooseM(objects)
	if n > 0 {
		avg := movArea / float64(n)
		for m > 16 && region.W()*region.H()/float64(m*m) < avg {
			m /= 2
		}
	}
	return m
}

// poissonSpan is the kernel span of the Poisson solve, which the density
// span contains. Traces and the benchmark's "poisson/" prefix match read
// it by this name.
const poissonSpan = "poisson/" + poisson.KindSpectral32

// reset makes e the engine of a stage over cv, whose fillers and extents
// are fixed for the whole stage; every hot kernel below shares it. The
// stage places inside region: its density grid covers region, whose edge
// is the Poisson problem's Neumann boundary, and the engine clamps cells
// to it. The held cells stand still with the fixed ones (see
// gpStage.held), and binCharge measures the preconditioner's charge in
// bins (see gpStage.binCharge).
//
// Every buffer an earlier stage left keeps its capacity and takes the
// prefix this stage needs (reuse.Resize); the models and the optimizer
// reset the same way (wirelength.Model.Reset, density.Model.Reset,
// nesterov.Optimizer.Start). Each buffer is rewritten in full before it
// is read, and degree, which counts up, is cleared first. The schedule
// starts from its zero value, and the optimizer is started by the
// caller.
func (e *engine) reset(cv *netlist.Compiled, region geom.Rect, idx, held []int, binCharge bool, opt Options, rec *telemetry.Recorder) error {
	d := cv.Design()
	if err := poisson.ValidateKind(opt.Poisson); err != nil {
		return err
	}
	e.still = cv.FixedOrHeldInto(e.still, held)
	m := opt.GridM
	if m == 0 {
		var area float64
		n := 0
		for i, still := range e.still {
			if !still {
				area += cv.CellW[i] * cv.CellH[i]
				n++
			}
		}
		m = chooseGridM(region, len(e.still), area, n)
	}
	if err := e.dm.Reset(cv, region, e.still, m, opt.Workers); err != nil {
		return err
	}
	e.d, e.cv, e.region, e.idx, e.opt, e.rec, e.stage = d, cv, region, idx, opt, rec, ""
	e.wl.Reset(cv, idx, 1)
	e.wl.Workers = opt.Workers
	e.workers = parallel.Count(opt.Workers)
	if e.clampTask == nil {
		e.clampTask, e.combineTask = e.clampRange, e.combineRange
		e.gradFn, e.clampFn = e.gradient, e.clamp
	}
	n := len(idx)
	for _, p := range e.cellVectors() {
		*p = reuse.Resize(*p, n)
	}
	for _, p := range e.coordVectors() {
		*p = reuse.Resize(*p, 2*n)
	}
	e.sch = schedule{binW: math.Min(e.dm.Grid.BinW, e.dm.Grid.BinH)}
	binArea := e.dm.Grid.BinArea()
	clear(e.degree)
	for k, ci := range idx {
		// |E_i| counts distinct nets: a net is new unless an earlier pin
		// of the cell (a short range) is on it too.
		nets := cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]]
		for i, ni := range nets {
			if !slices.Contains(nets[:i], ni) {
				e.degree[k]++
			}
		}
		e.qNorm[k] = cv.CellW[ci] * cv.CellH[ci]
		if binCharge {
			e.qNorm[k] /= binArea
		}
		e.halfW[k] = cv.CellW[ci] / 2
		e.halfH[k] = cv.CellH[ci] / 2
	}
	e.cacheDeadHPWL()
	return nil
}

// cellVectors and coordVectors list the engine's per-cell vectors (one
// value per moved cell) and its solution-shaped ones ({x..., y...}).
func (e *engine) cellVectors() [4]*[]float64 {
	return [4]*[]float64{&e.degree, &e.qNorm, &e.halfW, &e.halfH}
}

func (e *engine) coordVectors() [2]*[]float64 {
	return [2]*[]float64{&e.gd, &e.best}
}

// reserve sizes the workspace once for the largest stage of a run: n
// moved objects over a design of cells cells, nets nets and slots pin
// slots, on an m x m grid. A later reset within those sizes allocates
// no vector; a larger one grows what it must.
func (e *engine) reserve(n, cells, nets, slots, m int) {
	e.wl.Reserve(cells, nets, slots, n)
	e.dm.Reserve(n, m)
	e.nest.Reserve(2 * n)
	for _, p := range e.cellVectors() {
		*p = reuse.Grow(*p, n)
	}
	for _, p := range e.coordVectors() {
		*p = reuse.Grow(*p, 2*n)
	}
	e.still = reuse.Grow(e.still, cells)
	e.deadNet = reuse.Grow(e.deadNet, nets)
	e.deadHPWL = reuse.Grow(e.deadHPWL, nets)
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
	e.deadNet = reuse.Resize(e.deadNet, multiPin-len(e.live))[:0]
	e.deadHPWL = reuse.Resize(e.deadHPWL, multiPin-len(e.live))[:0]
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
// only the live nets: the wirelength model prices them on its workers,
// and their values merge with the dead nets' cached ones into the same
// net-order sum, folded serially. Nets of degree < 2 add an exact +0,
// which leaves a sum that starts at +0 unchanged, so they are skipped.
func (e *engine) hpwl() float64 {
	live := e.wl.LiveHPWL()
	total, i := 0.0, 0
	for j, ni := range e.live {
		for ; i < len(e.deadNet) && e.deadNet[i] < ni; i++ {
			total += e.deadHPWL[i]
		}
		total += live[j]
	}
	for _, h := range e.deadHPWL[i:] {
		total += h
	}
	return total
}

// clampRange clamps cells [lo, hi) of e.out, the vector clamp passed.
func (e *engine) clampRange(_, lo, hi int) {
	n, r := len(e.idx), e.region
	x, y := e.out[lo:hi], e.out[n+lo:n+hi]
	hw, hh := e.halfW[lo:hi], e.halfH[lo:hi]
	for k := range x {
		x[k] = geom.Clamp(x[k], r.Lx+hw[k], r.Hx-hw[k])
		y[k] = geom.Clamp(y[k], r.Ly+hh[k], r.Hy-hh[k])
	}
}

// combineRange folds the density gradient of cells [lo, hi) into e.out,
// the vector gradient passed, and preconditions it in place.
func (e *engine) combineRange(_, lo, hi int) {
	n, lambda, precond := len(e.idx), e.sch.Lambda, !e.opt.DisablePrecond
	gx, gy := e.out[lo:hi], e.out[n+lo:n+hi]
	dx, dy := e.gd[lo:hi], e.gd[n+lo:n+hi]
	deg, q := e.degree[lo:hi], e.qNorm[lo:hi]
	for k := range gx {
		p := 1.0
		if precond {
			p = precondDiag(deg[k], q[k], lambda)
		}
		gx[k] = (gx[k] + lambda*dx[k]) / p
		gy[k] = (gy[k] + lambda*dy[k]) / p
	}
}

// precondDiag is a cell's preconditioner H~_f = |E_i| + lambda * q_i
// (Eq. 11-13) for its degree and charge, floored to stay positive
// definite for isolated cells at tiny lambda.
func precondDiag(degree, charge, lambda float64) float64 {
	p := degree + lambda*charge
	if p < 1e-4 {
		p = 1e-4
	}
	return p
}

// clamp keeps every cell's center inside the stage's region, respecting
// size.
func (e *engine) clamp(v []float64) {
	e.out = v
	parallel.For(e.workers, len(e.idx), e.clampTask)
	e.out = nil
}

// gradient evaluates the preconditioned gradient of f at v into g, which
// takes the wirelength gradient first (see combineRange).
func (e *engine) gradient(v, g []float64) {
	e.cv.SetPositions(e.idx, v)
	e.wl.Gamma = e.sch.Gamma
	t0 := time.Now()
	e.wl.CostAndGradient(g)
	e.rec.AddSpanTime(e.stage, "wirelength", time.Since(t0))
	t0 = time.Now()
	e.dm.Refresh(e.idx)
	e.dm.Gradient(e.idx, e.gd)
	e.rec.AddSpanTime(e.stage, "density", time.Since(t0))
	e.rec.AddSpanTime(e.stage, poissonSpan, e.dm.LastSolveTime())
	e.rec.Count("engine/grad_evals", 1)
	if e.opt.Telemetry.Active() {
		e.gradWL, e.gradDensity = sumAbs(g), sumAbs(e.gd)
	}

	e.out = g
	parallel.For(e.workers, len(e.idx), e.combineTask)
	e.out = nil
}

// start begins the schedule at v0, which it clamps in place: γ from
// v0's overflow; λ = lambdaInit when positive, else the balanced
// gradients times lambdaScale; and v0 as the first best snapshot.
func (e *engine) start(v0 []float64, lambdaInit, lambdaScale float64) {
	e.clamp(v0)
	e.cv.SetPositions(e.idx, v0)
	e.dm.Refresh(e.idx)
	tau0 := e.dm.Overflow(e.d.TargetDensity)
	e.sch.setGamma(tau0)
	e.sch.Lambda = lambdaInit
	if lambdaInit <= 0 {
		e.sch.Lambda = e.initLambda(v0, lambdaScale)
	}
	// HPWL of the clamped start.
	e.sch.HPWL0 = e.hpwl()
	e.sch.PrevHPWL, e.sch.Best, e.sch.BestTau = e.sch.HPWL0, v0, tau0
}

// initLambda balances the initial wirelength and density gradient norms
// (sum of absolute values) at v, the standard ePlace initialization, and
// returns the balance times scale (see gpStage.lambdaScale).
func (e *engine) initLambda(v []float64, scale float64) float64 {
	e.cv.SetPositions(e.idx, v)
	e.wl.Gamma = e.sch.Gamma
	e.wl.CostAndGradient(e.gd)
	sw := sumAbs(e.gd)
	e.dm.Refresh(e.idx)
	e.dm.Gradient(e.idx, e.gd)
	sd := sumAbs(e.gd)
	if sd == 0 {
		return 1
	}
	lambda := sw / sd
	if lambda <= 0 {
		lambda = 1
	}
	if scale > 0 {
		lambda *= scale
	}
	return lambda
}

// PlaceGlobal runs one global placement (the mGP or cGP loop) over the
// cells idx of the design cv was compiled from, and every filler of the
// view (see InsertFillers); the view must hold the starting positions.
// lambdaInit <= 0 selects automatic balancing. It returns the result;
// final positions are in the view and, written back once at the end, in
// the design's Cell structs. It errors without touching either on an
// invalid configuration (a Poisson name other than "" or spectral32, a
// bad grid size).
func PlaceGlobal(cv *netlist.Compiled, idx []int, opt Options, stage string, lambdaInit float64) (Result, error) {
	d := cv.Design()
	idx = slices.Clip(idx)
	for ci := len(d.Cells); ci < len(cv.PosX); ci++ {
		idx = append(idx, ci)
	}
	res, err := placeGlobal(context.Background(), gpStage{name: stage, cv: cv, region: d.Region, idx: idx, opt: opt, lambdaInit: lambdaInit})
	if err == nil {
		cv.Store()
	}
	return res, err
}

// placeGlobal runs stage s over its caller-owned view of the design,
// which holds the starting positions and receives the final ones. Inside
// a flow, a canceled stage first hands a final mid-stage snapshot to
// s.sink (regardless of the CheckpointEvery cadence, so the very latest
// state is resumable); a resume from that snapshot continues the
// trajectory bitwise-identically to the uninterrupted run.
func placeGlobal(ctx context.Context, s gpStage) (Result, error) {
	opt, stage, cv, idx := s.opt, s.name, s.cv, s.idx
	opt.defaults()
	d := cv.Design()
	var res Result
	if len(idx) == 0 {
		res.HPWL = cv.HPWL()
		res.Stop = StopTargetOverflow
		return res, nil
	}
	rec := opt.Telemetry
	rec.SetStage(stage)
	prevWL, prevDen := rec.SpanTime(stage, "wirelength"), rec.SpanTime(stage, "density")
	// gradTime is the stage's time inside the two gradient kernels so far
	// (the density span contains the Poisson span).
	gradTime := func() time.Duration {
		return rec.SpanTime(stage, "wirelength") + rec.SpanTime(stage, "density")
	}
	e := s.eng
	if e == nil {
		e = &engine{}
	}
	if err := e.reset(cv, s.region, idx, s.held, s.binCharge, opt, rec); err != nil {
		return res, err
	}
	e.stage = stage

	seedStep := 0.1 * e.sch.binW
	sch := &e.sch
	sch.stallIters, sch.minIters, sch.targetOverflow = cmp.Or(s.stallIters, stallIters), opt.MinIters, opt.TargetOverflow

	opt2 := &e.nest
	iter := 0
	if rs := s.resume; rs != nil {
		if err := rs.Validate(len(idx)); err != nil {
			return res, err
		}
		// Resume: the schedule and the optimizer come from the snapshot
		// and skip the start's evaluations, so the loop re-enters at
		// iteration rs.Iter bitwise-identically to the captured run.
		sch.GPState = *rs
		sch.Best = e.best
		copy(sch.Best, rs.Best)
		iter = rs.Iter
		opt2.Restore(rs.Nesterov, e.gradFn, e.clampFn, seedStep)
	} else {
		v0 := e.best
		cv.PositionsInto(idx, v0)
		e.start(v0, s.lambdaInit, s.lambdaScale)
		opt2.Start(v0, e.gradFn, e.clampFn, seedStep)
	}
	opt2.Workers = opt.Workers
	sch.divergeHPWL = divergeHPWL(sch.HPWL0, cv.NetW, d.Region)

	// A loop that runs out of iterations stops at the cap; every break
	// below names its own reason.
	res.Stop = StopIterationCap
	for ; iter < opt.MaxIters; iter++ {
		// Cooperative cancellation, checked once per iteration. The state
		// here is exactly what the next iteration would read (the same
		// cut a cadence checkpoint takes at the bottom of the loop), so
		// the snapshot resumes bitwise-identically.
		if ctx.Err() != nil {
			res.Stop = StopCanceled
			if s.sink != nil {
				s.sink(sch.snapshot(stage, iter, opt2.State()))
			}
			break
		}
		// Three kernel spans say what an iteration spends outside the two
		// gradients. "nesterov" is the step less the gradient time inside
		// it: the optimizer's vector passes, the clamps, the preconditioner.
		t0, g0 := time.Now(), gradTime()
		alpha, bt := opt2.Step(opt.DisableBkTrk)
		rec.AddSpanTime(stage, "nesterov", time.Since(t0)-(gradTime()-g0))

		t0 = time.Now()
		u := opt2.U
		e.cv.SetPositions(e.idx, u)
		hpwl := e.hpwl()
		rec.AddSpanTime(stage, "hpwl", time.Since(t0))
		tau := e.dm.Overflow(d.TargetDensity) // from the latest Refresh
		res.StopOverflow = tau

		// Roll this iteration's exact state into the stage's golden
		// digest and the trace, with the lambda and gamma the iteration's
		// gradient used (observe sets the next iteration's).
		t0 = time.Now()
		s.golden.Absorb(stage, iter, u, hpwl, sch.Lambda)
		rec.AddSpanTime(stage, "digest", time.Since(t0))
		if opt.Telemetry.Active() {
			wlNow, denNow := rec.SpanTime(stage, "wirelength"), rec.SpanTime(stage, "density")
			opt.Telemetry.Sample(Sample{
				Stage: stage, Iteration: iter,
				HPWL: hpwl, Overflow: tau, Energy: e.dm.Energy(),
				Lambda: sch.Lambda, Gamma: sch.Gamma, Alpha: alpha, Backtracks: bt,
				GradWL: e.gradWL, GradDensity: e.gradDensity, Steps: opt2.Steps(),
				WirelengthTime: wlNow - prevWL, DensityTime: denNow - prevDen,
			})
			prevWL, prevDen = wlNow, denNow
		}

		if stop := sch.observe(iter, u, hpwl, tau); stop != "" {
			res.Stop = stop
			iter++ // the iteration ran
			break
		}
		// Crash-safe snapshot of the loop state at this iteration
		// boundary (everything the next iteration reads), aligned to
		// absolute iteration numbers so a resumed run checkpoints at the
		// same points as an uninterrupted one.
		if s.sink != nil && opt.CheckpointEvery > 0 && (iter+1)%opt.CheckpointEvery == 0 {
			s.sink(sch.snapshot(stage, iter+1, opt2.State()))
		}
	}

	// Adopt the best snapshot if we diverged or stagnated past it, clamp
	// it in place, and write it to the view, which the final Refresh/HPWL
	// below and the next stage read.
	final := opt2.U
	if res.Stop == StopDiverged || res.Stop == StopStall {
		final = sch.Best
	}
	e.clamp(final)
	e.cv.SetPositions(e.idx, final)

	e.dm.Refresh(e.idx)
	res.Iterations = iter
	res.HPWL = e.hpwl()
	res.Overflow = e.dm.Overflow(d.TargetDensity)
	// How much of the netlist the stage's wirelength evaluations priced.
	rec.Count("wirelength/nets_priced", e.wl.NetsPriced())
	res.FinalLambda = sch.Lambda
	res.Backtracks = opt2.Backtracks()
	return res, nil
}

// sumAbs returns the L1 norm of x.
func sumAbs(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}
