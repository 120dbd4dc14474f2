package nonlinear

import "math"

// The Armijo line search shrinks the trial step by cgShrink until f falls
// by at least cgC1 times the decrease the directional derivative predicts.
const cgShrink, cgC1 = 0.5, 1e-4

// cg is the Polak-Ribiere nonlinear conjugate gradient solver with
// backtracking line search that prior nonlinear placers (APlace,
// NTUplace, FFTPL) use. ePlace replaces it with Nesterov's method; it
// stays here as the solver of the comparison baselines of Sec. V-A and
// footnote 2, which reports line search consuming >60% of FFTPL's
// runtime.
type cg struct {
	// maxTrials bounds the line-search trials per iteration.
	maxTrials int
	// initStep is the first trial steplength of each search, refreshed
	// from the previously accepted step.
	initStep float64

	cost  func(v []float64) float64
	grad  func(v, g []float64)
	clamp func(v []float64)

	v    []float64
	g    []float64
	dir  []float64
	cand []float64

	prevGrad []float64

	// costEvals counts the objective evaluations spent inside line
	// search, the quantity footnote 2 is about; gradEvals and steps count
	// gradient evaluations and Step calls.
	costEvals int
	gradEvals int
	steps     int
}

// newCG creates a CG solver at v0; clamp may be nil.
func newCG(v0 []float64, cost func([]float64) float64, g func(v, g []float64), clamp func([]float64), initStep float64, maxTrials int) *cg {
	n := len(v0)
	s := &cg{
		maxTrials: maxTrials,
		initStep:  initStep,
		cost:      cost,
		grad:      g,
		clamp:     clamp,
		v:         append([]float64(nil), v0...),
		g:         make([]float64, n),
		dir:       make([]float64, n),
		cand:      make([]float64, n),
		prevGrad:  make([]float64, n),
	}
	s.grad(s.v, s.g)
	s.gradEvals++
	return s
}

// step performs one CG iteration: direction update and line search.
func (s *cg) step() {
	n := len(s.v)
	dg := 0.0 // directional derivative along s.dir
	if s.steps > 0 {
		// Polak-Ribiere+ beta.
		var num, den float64
		for i := 0; i < n; i++ {
			num += s.g[i] * (s.g[i] - s.prevGrad[i])
			den += s.prevGrad[i] * s.prevGrad[i]
		}
		beta := 0.0
		if den > 0 {
			beta = math.Max(0, num/den)
		}
		for i := 0; i < n; i++ {
			s.dir[i] = -s.g[i] + beta*s.dir[i]
			dg += s.dir[i] * s.g[i]
		}
	}
	// Steepest descent on the first step, and as a restart whenever the
	// conjugate direction does not descend.
	if s.steps == 0 || dg >= 0 {
		dg = 0
		for i := 0; i < n; i++ {
			s.dir[i] = -s.g[i]
			dg += s.dir[i] * s.g[i]
		}
	}

	f0 := s.cost(s.v)
	s.costEvals++
	step := s.initStep
	accepted := 0.0
	for trial := 0; trial < s.maxTrials; trial++ {
		for i := 0; i < n; i++ {
			s.cand[i] = s.v[i] + step*s.dir[i]
		}
		if s.clamp != nil {
			s.clamp(s.cand)
		}
		f := s.cost(s.cand)
		s.costEvals++
		if f <= f0+cgC1*step*dg {
			accepted = step
			break
		}
		step *= cgShrink
	}
	if accepted == 0 {
		// Line search failed; take the tiny last trial anyway to avoid
		// stalling (the candidate holds the smallest step).
		accepted = step
	}
	copy(s.v, s.cand)
	copy(s.prevGrad, s.g)
	s.grad(s.v, s.g)
	s.gradEvals++
	// Warm-start the next search near the accepted step.
	s.initStep = math.Max(accepted*2, 1e-12)
	s.steps++
}
