// Package wirelength implements smooth wirelength models and their
// analytic gradients: the weighted-average (WA) model of Eq. (3) used by
// ePlace and the log-sum-exp (LSE) model used by the bell-shape baseline
// placers. Both approach HPWL as the smoothing parameter gamma tends to
// zero; WA from below with tighter error, LSE from above.
//
// Evaluation runs on the compiled CSR view of the design
// (netlist.Compiled): flat int32 net->pin arrays, SoA pin offsets and a
// shared SoA position vector, walked by a fused kernel that computes
// each net's pin positions, min/max, exponentials, partial sums and —
// reusing the cached exponentials — the per-pin derivatives in a single
// sweep. That halves the exponentials of the classic
// cost-loop-then-gradient-loop formulation, expTerms halves them again
// by taking one per distinct argument (through expNeg, not math.Exp), and
// no Net -> Pin -> Cell pointer chase is left on the hot path.
package wirelength

import (
	"math"
	"slices"
	"sort"

	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/reuse"
)

// Kind selects the smoothing model.
type Kind uint8

const (
	// WA is the weighted-average model (Eq. 3).
	WA Kind = iota
	// LSE is the log-sum-exp model.
	LSE
)

// evalTasks is the fixed number of net (and cell) tasks the evaluation
// shards into. Task boundaries are precomputed from the pin-count
// prefix sum — balanced pin work per task, not balanced net counts —
// and do not depend on the worker count, so the work decomposition is
// identical for every Workers setting.
const evalTasks = 64

// Model evaluates smooth wirelength over one design. The cell-to-slot
// mapping is fixed at construction: gradients are produced only for the
// cells passed to NewCompiled, all other cells contribute as fixed terminals.
//
// The model prices its live nets only: a live net has degree >= 2 and
// at least one pin on a model cell. Every other net is a constant in the
// model's variables, so its gradient is zero and nothing reads it.
// Cost and CostAndGradient return the smooth wirelength of the live
// nets, summed in net order; the gradient is bit for bit the one an
// all-nets sweep produces. A model over a small subset of the cells (an
// ECO edit's active set) pays only for the nets that subset can move.
//
// Concurrency contract: a Model is NOT safe for concurrent use by
// multiple goroutines — evaluations share internal reduction state
// (per-net costs, per-pin gradient contributions). Parallelism is
// internal: set Workers and call Cost/CostAndGradient from one
// goroutine. The design's net/pin topology must not change after
// NewCompiled or Reset (net weights may change between evaluations;
// Gamma and Kind too).
//
// Allocation contract: after the first evaluation at a given worker
// count, Cost, CostAndGradient and LiveHPWL allocate nothing — the
// evaluation state lives in buffers sized by Reset, and
// parallel.For runs the shards on its persistent team.
type Model struct {
	Kind  Kind
	Gamma float64
	// Workers is the number of workers for net evaluation and gradient
	// scatter; <= 0 selects all cores (GOMAXPROCS). Results are
	// bitwise-identical for every worker count: per-net terms are
	// computed independently and reduced in a fixed (net, pin) order
	// that matches the serial loop exactly.
	Workers int

	cv   *netlist.Compiled
	idx  []int
	slot []int32 // cell index -> position in idx, or -1

	// live lists the live nets in ascending net order. Live net j's pins
	// own the compact slots liveOff[j]..liveOff[j+1], in the net's pin
	// order; liveOff is also the pin-count prefix sum the net tasks are
	// balanced on.
	live    []int32
	liveOff []int32

	// Deterministic reduction state (see eval). costs holds each live
	// net's weighted smooth cost; pinGX/pinGY hold each compact pin slot's
	// weighted gradient contribution, written by exactly one worker (the
	// one owning the slot's net task). adjSlot lists, for model cell k,
	// the compact slots adjSlot[adjOff[k]:adjOff[k+1]] that contribute to
	// its gradient in ascending slot order — which IS (net index,
	// position within the net) order, the exact order the serial scatter
	// visits them, so the left-to-right fold per cell reproduces the
	// serial sum bit for bit.
	costs   []float64
	pinGX   []float64
	pinGY   []float64
	adjOff  []int32
	adjSlot []int32
	adjCnt  []int32 // buildAdjacency's per-cell counts and fill cursors

	// Fixed task boundaries: netTaskOff[t]..netTaskOff[t+1] are the live
	// nets of task t (pin-balanced via liveOff), cellTaskOff likewise for
	// the gradient scatter (adjacency-balanced).
	netTaskOff  []int32
	cellTaskOff []int32

	// evals counts evaluations, for NetsPriced.
	evals int64

	maxDeg int
	scr    []*netScratch // per-worker scratch, grown on demand

	// grad is the gradient destination for the current eval (nil for
	// cost-only) and invGamma its 1/Gamma; netTask/cellTask are the
	// persistent worker closures, built once so repeated evaluations
	// allocate nothing.
	grad     []float64
	invGamma float64
	netTask  func(wk, lo, hi int)
	cellTask func(wk, lo, hi int)
	hpwlTask func(wk, lo, hi int)
}

// netScratch is one worker's per-net buffers: pin coordinates for one
// axis pair and the cached e^+ / e^- exponentials the fused kernel
// shares between the span sums and the derivative pass.
type netScratch struct {
	xs, ys, ep, em []float64
}

// NewCompiled builds a model producing gradients for the cells in idx
// over a caller-owned compiled view, the only way into the kernel. The
// caller keeps the view's positions (and, if they change, net weights)
// current — the engine writes them once per iteration via
// Compiled.SetPositions, and a stage Syncs the view from the Cell
// structs on entry. Gamma must be positive; it can be changed between
// evaluations. It is Reset on a zero value.
func NewCompiled(cv *netlist.Compiled, idx []int, gamma float64) *Model {
	m := &Model{}
	m.Reset(cv, idx, gamma)
	return m
}

// Reset makes m the model NewCompiled builds, Workers aside, reusing
// what an earlier stage left: the slot map, the live-net list, the
// reduction state, the adjacency and the task boundaries keep their
// capacity and take the prefix the new stage needs, and the per-worker
// scratch grows only past the largest live degree it has served. The
// evaluation count restarts, so NetsPriced counts this stage's.
func (m *Model) Reset(cv *netlist.Compiled, idx []int, gamma float64) {
	m.Kind, m.Gamma, m.cv, m.idx, m.evals = WA, gamma, cv, idx, 0
	m.slot = reuse.Resize(m.slot, len(cv.Design().Cells))
	for i := range m.slot {
		m.slot[i] = -1
	}
	for k, ci := range idx {
		m.slot[ci] = int32(k)
	}
	m.findLiveNets()
	m.costs = reuse.Resize(m.costs, len(m.live))
	m.pinGX = reuse.Resize(m.pinGX, int(m.liveOff[len(m.live)]))
	m.pinGY = reuse.Resize(m.pinGY, int(m.liveOff[len(m.live)]))
	m.buildAdjacency()
	m.netTaskOff = balancedTasks(m.netTaskOff, m.liveOff, len(m.live))
	m.cellTaskOff = balancedTasks(m.cellTaskOff, m.adjOff, len(idx))
	// A worker's scratch too short for the new largest degree goes; grow
	// builds it again at the next evaluation.
	m.scr = slices.DeleteFunc(m.scr, func(s *netScratch) bool { return len(s.xs) < m.maxDeg })
	if m.netTask == nil {
		m.bindTasks()
	}
}

// Reserve gives the model the capacity of a stage over a design of cells
// cells, nets nets and slots pin slots that moves n of the cells, so
// that no later Reset within those sizes allocates. Call it before a
// Reset.
func (m *Model) Reserve(cells, nets, slots, n int) {
	m.slot = reuse.Grow(m.slot, cells)
	m.live = reuse.Grow(m.live, nets)
	m.liveOff = reuse.Grow(m.liveOff, nets+1)
	m.costs = reuse.Grow(m.costs, nets)
	for _, p := range [2]*[]float64{&m.pinGX, &m.pinGY} {
		*p = reuse.Grow(*p, slots)
	}
	m.adjSlot = reuse.Grow(m.adjSlot, slots)
	m.adjOff = reuse.Grow(m.adjOff, n+1)
	m.adjCnt = reuse.Grow(m.adjCnt, n)
}

// bindTasks builds the persistent worker tasks; their inputs are the
// model's fields, read per call.
func (m *Model) bindTasks() {
	m.netTask = func(wk, lo, hi int) {
		s := m.scr[wk]
		for t := lo; t < hi; t++ {
			for j := m.netTaskOff[t]; j < m.netTaskOff[t+1]; j++ {
				b, e := m.liveOff[j], m.liveOff[j+1]
				m.costs[j] = m.netCost(int(m.live[j]), m.pinGX[b:e], m.pinGY[b:e], s)
			}
		}
	}
	m.cellTask = func(_, lo, hi int) {
		n := len(m.idx)
		grad := m.grad
		for t := lo; t < hi; t++ {
			for k := int(m.cellTaskOff[t]); k < int(m.cellTaskOff[t+1]); k++ {
				var gx, gy float64
				for _, s := range m.adjSlot[m.adjOff[k]:m.adjOff[k+1]] {
					gx += m.pinGX[s]
					gy += m.pinGY[s]
				}
				grad[k] = gx
				grad[k+n] = gy
			}
		}
	}
	m.hpwlTask = func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			m.costs[j] = m.cv.NetHPWL(int(m.live[j]))
		}
	}
}

// balancedTasks splits count items into at most evalTasks contiguous
// tasks whose boundaries equalize the prefix-sum weight off (off has
// length count+1; for nets that is the pin count, for cells the
// adjacency length), written into b (resized). The boundaries depend
// only on the topology, never on the worker count.
func balancedTasks(b, off []int32, count int) []int32 {
	nT := evalTasks
	if nT > count {
		nT = count
	}
	b = reuse.Resize(b, nT+1)
	b[0] = 0
	if nT == 0 {
		return b
	}
	total := int(off[count])
	b[nT] = int32(count)
	for t := 1; t < nT; t++ {
		target := int32(total * t / nT)
		i := sort.Search(count, func(i int) bool { return off[i] >= target })
		if i < int(b[t-1]) {
			i = int(b[t-1])
		}
		b[t] = int32(i)
	}
	return b
}

// findLiveNets counts the live nets and their pins, then fills live and
// liveOff in net order, and sizes the worker scratch by the largest live
// degree.
func (m *Model) findLiveNets() {
	cv := m.cv
	isLive := func(ni int) bool {
		o0, o1 := cv.NetOff[ni], cv.NetOff[ni+1]
		if o1-o0 < 2 {
			return false
		}
		for _, ci := range cv.PinCell[o0:o1] {
			if ci >= 0 && m.slot[ci] >= 0 {
				return true
			}
		}
		return false
	}
	nets := len(cv.NetOff) - 1
	count := 0
	for ni := 0; ni < nets; ni++ {
		if isLive(ni) {
			count++
		}
	}
	m.live = reuse.Resize(m.live, count)[:0]
	m.liveOff = reuse.Resize(m.liveOff, count+1)[:1]
	m.liveOff[0] = 0
	m.maxDeg = 0
	for ni := 0; ni < nets; ni++ {
		if isLive(ni) {
			deg := cv.NetOff[ni+1] - cv.NetOff[ni]
			m.live = append(m.live, int32(ni))
			m.liveOff = append(m.liveOff, m.liveOff[len(m.live)-1]+deg)
			m.maxDeg = max(m.maxDeg, int(deg))
		}
	}
}

// buildAdjacency precomputes, for every model cell, its gradient-
// contributing compact pin slots in ascending slot order (net index
// ascending, then pin position within the net) — the serial scatter
// order. Only live nets have slots; pins of floating terminals and
// non-model cells are excluded.
func (m *Model) buildAdjacency() {
	cv := m.cv
	n := len(m.idx)
	m.adjCnt = reuse.Resize(m.adjCnt, n)
	counts := m.adjCnt
	clear(counts)
	forEach := func(visit func(k, s int32)) {
		for j, ni := range m.live {
			o0 := cv.NetOff[ni]
			for p, ci := range cv.PinCell[o0:cv.NetOff[ni+1]] {
				if ci < 0 {
					continue
				}
				if k := m.slot[ci]; k >= 0 {
					visit(k, m.liveOff[j]+int32(p))
				}
			}
		}
	}
	forEach(func(k, _ int32) { counts[k]++ })
	m.adjOff = reuse.Resize(m.adjOff, n+1)
	m.adjOff[0] = 0
	for k, c := range counts {
		m.adjOff[k+1] = m.adjOff[k] + c
	}
	m.adjSlot = reuse.Resize(m.adjSlot, int(m.adjOff[n]))
	// counts becomes each cell's fill cursor.
	copy(counts, m.adjOff[:n])
	forEach(func(k, s int32) {
		m.adjSlot[counts[k]] = s
		counts[k]++
	})
}

// LiveNets returns the live nets in ascending order: those of degree
// >= 2 with at least one pin on a model cell. The slice is the model's
// own and must not be modified.
func (m *Model) LiveNets() []int32 { return m.live }

// LiveHPWL returns the exact HPWL of every live net at the view's
// current positions, in LiveNets order, sharded over the model's
// workers. The slice is the per-net scratch the evaluations fold their
// costs through: it is overwritten by the next evaluation or LiveHPWL
// call, and must not be modified.
func (m *Model) LiveHPWL() []float64 {
	parallel.For(parallel.Count(m.Workers), len(m.live), m.hpwlTask)
	return m.costs
}

// NetsPriced returns the number of per-net evaluations the model has
// run: its live-net count times its evaluation count.
func (m *Model) NetsPriced() int64 { return int64(len(m.live)) * m.evals }

// grow ensures per-worker scratch exists for workers shards.
func (m *Model) grow(workers int) {
	for len(m.scr) < workers {
		m.scr = append(m.scr, &netScratch{
			xs: make([]float64, m.maxDeg),
			ys: make([]float64, m.maxDeg),
			ep: make([]float64, m.maxDeg),
			em: make([]float64, m.maxDeg),
		})
	}
}

// Cost returns the smooth wirelength of the live nets at the current
// positions. The other nets add a constant, so differences of Cost are
// the differences of the whole design's smooth wirelength.
func (m *Model) Cost() float64 { return m.eval(nil) }

// CostAndGradient returns the live nets' smooth wirelength and writes
// its gradient for the model's cells into grad, laid out
// {x_1..x_n, y_1..y_n}.
// grad is not read: eval assigns every element unconditionally (the
// scatter phase owns the full vector), so no zeroing pass is needed.
func (m *Model) CostAndGradient(grad []float64) float64 {
	if len(grad) != 2*len(m.idx) {
		panic("wirelength: gradient buffer size mismatch")
	}
	return m.eval(grad)
}

// eval runs the three-phase parallel pipeline over the compiled view.
// Phase 1 shards the fixed pin-balanced live-net tasks: each worker runs
// the fused per-net kernel (netCost), writing its nets' smooth costs
// into m.costs and (when grad != nil) each compact pin slot's weighted
// derivative into m.pinGX/m.pinGY — every write is owned by exactly one
// worker, so there is no shared accumulator. Phase 2 folds the live-net
// costs in net order on the calling goroutine. Phase 3 shards the model
// cells (adjacency-balanced tasks): each cell's gradient is the
// left-to-right fold of its adjacency contributions, assigned (never
// accumulated) into grad.
//
// Invariant: with grad != nil every element of grad is assigned exactly
// once per eval, so callers never need to zero it. Both reductions use
// a fixed order and association independent of the worker count, so
// every Workers setting produces bitwise-identical results, Workers=1
// included.
func (m *Model) eval(grad []float64) float64 {
	workers := parallel.Count(m.Workers)
	m.grow(workers)
	m.grad = grad
	m.invGamma = 1 / m.Gamma
	m.evals++

	parallel.For(workers, len(m.netTaskOff)-1, m.netTask)

	total := 0.0
	for _, c := range m.costs {
		total += c
	}

	if grad != nil {
		parallel.For(workers, len(m.cellTaskOff)-1, m.cellTask)
	}
	m.grad = nil
	return total
}

// netCost is the fused per-net kernel for net ni, of degree >= 2: it
// returns the net's weighted smooth cost and, when a gradient is
// requested, writes pin p's weighted derivatives into gx[p] and gy[p].
// One sweep gathers the pin positions from the SoA arrays and tracks
// min/max per axis, then each axis computes its exponentials ONCE
// (expTerms) — caching e^+ / e^- in the worker scratch — and derives
// both the smooth span and every derivative from the cached values. The
// unfused axisWA/axisLSE (math.Exp, a division wherever the formula has
// one) are the oracle it agrees with to rounding; a NaN or infinite pin
// still turns the net's cost and every derivative non-finite.
func (m *Model) netCost(ni int, gx, gy []float64, s *netScratch) float64 {
	cv := m.cv
	o0, o1 := int(cv.NetOff[ni]), int(cv.NetOff[ni+1])
	deg := o1 - o0
	w := cv.NetW[ni]
	pinCell, pinOx, pinOy := cv.PinCell, cv.PinOx, cv.PinOy
	posX, posY := cv.PosX, cv.PosY
	xs, ys := s.xs[:deg], s.ys[:deg]
	x, y := pinOx[o0], pinOy[o0]
	if ci := pinCell[o0]; ci >= 0 {
		x += posX[ci]
		y += posY[ci]
	}
	xs[0], ys[0] = x, y
	xmin, xmax, ymin, ymax := x, x, y, y
	for p := 1; p < deg; p++ {
		sl := o0 + p
		x, y = pinOx[sl], pinOy[sl]
		if ci := pinCell[sl]; ci >= 0 {
			x += posX[ci]
			y += posY[ci]
		}
		xs[p], ys[p] = x, y
		xmin, xmax = min(xmin, x), max(xmax, x)
		ymin, ymax = min(ymin, y), max(ymax, y)
	}
	var cost float64
	if m.Kind == LSE {
		cost = m.fusedLSE(xs, xmin, xmax, s, gx, w) +
			m.fusedLSE(ys, ymin, ymax, s, gy, w)
	} else {
		cost = m.fusedWA(xs, xmin, xmax, s, gx, w) +
			m.fusedWA(ys, ymin, ymax, s, gy, w)
	}
	return w * cost
}

// expTerms is the one place the fused kernels take an exponential, and
// they take it through expNeg: every argument is <= 0. For one axis of
// one net it caches every pin's max-shifted exponentials
// e+ = exp((x-xmax)/gamma) and e- = exp((xmin-x)/gamma) in the worker
// scratch and returns them with their sums S+- = sum e+- and
// T+- = sum x*e+-, accumulated in pin order (LSE ignores T+-).
//
// Of the 2*deg arguments at most 2*deg-3 are distinct. e+ of a pin at
// xmax and e- of a pin at xmin have argument exactly +-0, and expNeg(+-0)
// is exactly 1 (TestExpNegSpecialValues pins that); e+ of a pin at xmin
// and e- of a pin at xmax share the argument (xmin-xmax)/gamma, computed
// once. Equal arguments give equal bits, so skipping the repeats changes
// no result, and on a typical netlist (2-3 pins per net) they are half of
// all calls.
func expTerms(xs []float64, xmin, xmax, invGamma float64, s *netScratch) (ep, em []float64, sp, tp, sm, tm float64) {
	ep, em = s.ep[:len(xs)], s.em[:len(xs)]
	// An infinite extreme makes its own argument Inf-Inf = NaN, not 0, and
	// that NaN is what carries a diverged coordinate into the net's cost
	// and every derivative, where the engine's guard looks for it. (A NaN
	// extreme compares equal to no pin, so every term goes through expNeg.)
	one := 1.0
	if xmax > math.MaxFloat64 || xmin < -math.MaxFloat64 {
		one = math.NaN()
	}
	across := expNeg((xmin - xmax) * invGamma)
	for p, x := range xs {
		var e1, e2 float64
		switch x {
		case xmax: // and every pin of a zero-span net, where across is exp(+-0)
			e1, e2 = one, across
		case xmin:
			e1, e2 = across, one
		default:
			e1 = expNeg((x - xmax) * invGamma)
			e2 = expNeg((xmin - x) * invGamma)
		}
		ep[p], em[p] = e1, e2
		sp += e1
		tp += x * e1
		sm += e2
		tm += x * e2
	}
	return ep, em, sp, tp, sm, tm
}

// fusedWA computes the weighted-average span of Eq. (3) for one axis
// with the standard max-shift, and when a gradient is requested writes
// each pin's weighted derivative into gOut[p], reusing the cached
// exponentials instead of recomputing them.
func (m *Model) fusedWA(xs []float64, xmin, xmax float64, s *netScratch, gOut []float64, w float64) float64 {
	ig := m.invGamma
	ep, em, sp, tp, sm, tm := expTerms(xs, xmin, xmax, ig, s) // S+, T+, S-, T-
	span := tp/sp - tm/sm
	if m.grad == nil {
		return span
	}
	// Every division by gamma, S+^2 and S-^2 is a multiply by a reciprocal
	// taken once per net and axis, so a derivative agrees with axisWA to
	// rounding and no longer bit for bit: with all pins coincident,
	// n*(x/g) and (n*x)/g round apart and the derivative is a few ulp of
	// the net weight where the exact value is 0.
	tpg, tmg := tp*ig, tm*ig
	isp2, ism2 := 1/(sp*sp), 1/(sm*sm)
	for p, x := range xs {
		xg := x * ig
		// d(T+/S+)/dx = e^{x/g} [ S+ (1 + x/g) - T+/g ] / S+^2
		dmax := ep[p] * (sp*(1+xg) - tpg) * isp2
		// d(T-/S-)/dx = e^{-x/g} [ S- (1 - x/g) + T-/g ] / S-^2
		dmin := em[p] * (sm*(1-xg) + tmg) * ism2
		gOut[p] = w * (dmax - dmin)
	}
	return span
}

// fusedLSE computes gamma*(log sum exp(x/gamma) + log sum exp(-x/gamma))
// for one axis with cached exponentials, mirroring fusedWA's structure.
func (m *Model) fusedLSE(xs []float64, xmin, xmax float64, s *netScratch, gOut []float64, w float64) float64 {
	ep, em, sp, _, sm, _ := expTerms(xs, xmin, xmax, m.invGamma, s)
	cost := m.Gamma*(math.Log(sp)+math.Log(sm)) + (xmax - xmin)
	if m.grad != nil {
		for p := range xs {
			gOut[p] = w * (ep[p]/sp - em[p]/sm)
		}
	}
	return cost
}

// axis computes the one-dimensional smooth span of the coordinates in
// xs and, when g is non-nil, writes per-pin derivatives into g. It is
// the unfused REFERENCE implementation the equivalence tests compare
// the fused kernel against; the hot path no longer calls it.
func (m *Model) axis(xs []float64, g []float64) float64 {
	if m.Kind == LSE {
		return m.axisLSE(xs, g)
	}
	return m.axisWA(xs, g)
}

// axisWA implements the weighted-average span of Eq. (3) with the
// standard max-shift for numerical stability (reference path).
func (m *Model) axisWA(xs []float64, g []float64) float64 {
	gamma := m.Gamma
	xmax, xmin := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	var sp, tp, sm, tm float64 // S+, T+, S-, T-
	for _, x := range xs {
		ep := math.Exp((x - xmax) / gamma)
		em := math.Exp((xmin - x) / gamma)
		sp += ep
		tp += x * ep
		sm += em
		tm += x * em
	}
	span := tp/sp - tm/sm
	if g != nil {
		for p, x := range xs {
			ep := math.Exp((x - xmax) / gamma)
			em := math.Exp((xmin - x) / gamma)
			dmax := ep * (sp*(1+x/gamma) - tp/gamma) / (sp * sp)
			dmin := em * (sm*(1-x/gamma) + tm/gamma) / (sm * sm)
			g[p] = dmax - dmin
		}
	}
	return span
}

// axisLSE implements gamma*(log sum exp(x/gamma) + log sum exp(-x/gamma))
// (reference path).
func (m *Model) axisLSE(xs []float64, g []float64) float64 {
	gamma := m.Gamma
	xmax, xmin := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	var sp, sm float64
	for _, x := range xs {
		sp += math.Exp((x - xmax) / gamma)
		sm += math.Exp((xmin - x) / gamma)
	}
	cost := gamma*(math.Log(sp)+math.Log(sm)) + (xmax - xmin)
	if g != nil {
		for p, x := range xs {
			g[p] = math.Exp((x-xmax)/gamma)/sp - math.Exp((xmin-x)/gamma)/sm
		}
	}
	return cost
}
