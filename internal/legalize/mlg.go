package legalize

import (
	"math"
	"math/rand"
	"time"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/telemetry"
)

// MLGOptions tunes the annealing macro legalizer.
type MLGOptions struct {
	// MovesPerMacro sets the inner SA loop length as moves per macro
	// (default 400).
	MovesPerMacro int
	// Seed drives the annealer (default 1).
	Seed int64
	// AllowOrient enables 90-degree macro rotation moves, the extension
	// the paper mentions but disables to follow contest protocols
	// (Sec. III). Pin offsets rotate with the macro.
	AllowOrient bool
	// Workers parallelizes the state build (coverage splat, net HPWL
	// cache, per-macro terms): 0 uses all cores. The annealing loop
	// itself consumes one sequential RNG stream and stays serial.
	// Results are bitwise-identical at every setting: float reductions
	// run over a fixed shard structure independent of the worker count.
	Workers int
	// Telemetry, when non-nil, receives one Sample per outer iteration
	// (stage "mLG": HPWL=W, Energy=D, Overlap=Om, the Fig. 5 metrics)
	// plus move/accept counters.
	Telemetry *telemetry.Recorder
}

func (o *MLGOptions) defaults() {
	if o.MovesPerMacro <= 0 {
		o.MovesPerMacro = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// MLGResult reports a macro legalization run.
type MLGResult struct {
	// W, D, Om before and after (the Fig. 5 metrics).
	WBefore, DBefore, OmBefore float64
	WAfter, DAfter, OmAfter    float64
	OuterIterations            int
	Moves, Accepted            int
	Legal                      bool
}

// mlgState evaluates f_mLG = W + muD*D + muO*Om incrementally.
type mlgState struct {
	d      *netlist.Design
	macros []int
	// covGrid[j*m+i] = std-cell area in bin (i, j), fixed during mLG.
	covGrid    []float64
	m          int
	binW, binH float64

	// Cached per-macro contributions.
	dCov []float64 // D contribution of each macro
	// netHPWL caches every net's HPWL; macroNets lists nets per macro.
	netHPWL   []float64
	macroNets [][]int

	W, D, Om float64
}

// mlgShards is the fixed shard count for the state build's float
// reductions (coverage splat, W, D, Om). Determinism contract: the
// shard structure — and therefore the floating-point grouping — is a
// constant, never a function of the worker count, so every worker
// count sums in exactly the same order.
const mlgShards = 64

func newMLGState(d *netlist.Design, macros []int, gridM, workers int) *mlgState {
	nw := parallel.Count(workers)
	s := &mlgState{
		d: d, macros: macros, m: gridM,
		covGrid: make([]float64, gridM*gridM),
		binW:    d.Region.W() / float64(gridM),
		binH:    d.Region.H() / float64(gridM),
		dCov:    make([]float64, len(macros)),
	}
	// Rasterize standard cells (movable or fixed, non-macro, non-filler)
	// into one sub-grid per fixed cell shard, then reduce each bin over
	// shards in shard order. Each shard costs a gridM² sub-grid, so the
	// shard count is design-derived — small designs use one shard (the
	// plain serial splat, no copy) — but never worker-derived, keeping
	// the float grouping identical at every worker count.
	nb := gridM * gridM
	splatShards := len(d.Cells) / 4096
	if splatShards < 1 {
		splatShards = 1
	}
	if splatShards > mlgShards {
		splatShards = mlgShards
	}
	if splatShards == 1 {
		for i := range d.Cells {
			c := &d.Cells[i]
			if c.Kind == netlist.StdCell {
				splatInto(s.covGrid, s, c.Rect())
			}
		}
	} else {
		shardGrids := make([]float64, splatShards*nb)
		parallel.For(nw, splatShards, func(_, lo, hi int) {
			for sh := lo; sh < hi; sh++ {
				grid := shardGrids[sh*nb : (sh+1)*nb]
				c0 := sh * len(d.Cells) / splatShards
				c1 := (sh + 1) * len(d.Cells) / splatShards
				for i := c0; i < c1; i++ {
					c := &d.Cells[i]
					if c.Kind == netlist.StdCell {
						splatInto(grid, s, c.Rect())
					}
				}
			}
		})
		parallel.For(nw, nb, func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				acc := 0.0
				for sh := 0; sh < splatShards; sh++ {
					acc += shardGrids[sh*nb+b]
				}
				s.covGrid[b] = acc
			}
		})
	}
	// Cache net HPWL (disjoint writes) and reduce W over fixed net shards.
	s.netHPWL = make([]float64, len(d.Nets))
	var wPart [mlgShards]float64
	parallel.For(nw, mlgShards, func(_, lo, hi int) {
		for sh := lo; sh < hi; sh++ {
			n0 := sh * len(d.Nets) / mlgShards
			n1 := (sh + 1) * len(d.Nets) / mlgShards
			acc := 0.0
			for ni := n0; ni < n1; ni++ {
				s.netHPWL[ni] = d.NetHPWL(ni)
				acc += s.netHPWL[ni]
			}
			wPart[sh] = acc
		}
	})
	for sh := 0; sh < mlgShards; sh++ {
		s.W += wPart[sh]
	}
	// Per-macro terms: disjoint writes per macro, serial in-order sums.
	s.macroNets = make([][]int, len(macros))
	parallel.For(nw, len(macros), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			mi := macros[k]
			// Determinism contract: seen is membership-only; macroNets[k]
			// is built in the macro's deterministic pin order.
			seen := map[int]bool{}
			for _, pi := range d.Cells[mi].Pins {
				ni := d.Pins[pi].Net
				if !seen[ni] {
					seen[ni] = true
					s.macroNets[k] = append(s.macroNets[k], ni)
				}
			}
			s.dCov[k] = s.coverage(d.Cells[mi].Rect())
		}
	})
	for k := range macros {
		s.D += s.dCov[k]
	}
	s.Om = s.macroOverlapWorkers(nw)
	return s
}

// splatInto rasterizes rectangle r into the given grid (one shard's
// sub-grid during the parallel state build).
func splatInto(grid []float64, s *mlgState, r geom.Rect) {
	r = r.Intersect(s.d.Region)
	if r.Empty() {
		return
	}
	i0 := int((r.Lx - s.d.Region.Lx) / s.binW)
	i1 := int(math.Ceil((r.Hx - s.d.Region.Lx) / s.binW))
	j0 := int((r.Ly - s.d.Region.Ly) / s.binH)
	j1 := int(math.Ceil((r.Hy - s.d.Region.Ly) / s.binH))
	i0, j0 = clampIdx(i0, s.m), clampIdx(j0, s.m)
	i1, j1 = clampHi(i1, s.m), clampHi(j1, s.m)
	for j := j0; j < j1; j++ {
		by := s.d.Region.Ly + float64(j)*s.binH
		oy := math.Min(r.Hy, by+s.binH) - math.Max(r.Ly, by)
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			bx := s.d.Region.Lx + float64(i)*s.binW
			ox := math.Min(r.Hx, bx+s.binW) - math.Max(r.Lx, bx)
			if ox > 0 {
				grid[j*s.m+i] += ox * oy
			}
		}
	}
}

// coverage returns the std-cell area under rectangle r: the per-macro
// D(v) contribution, computed from the fixed coverage grid.
func (s *mlgState) coverage(r geom.Rect) float64 {
	r = r.Intersect(s.d.Region)
	if r.Empty() {
		return 0
	}
	binArea := s.binW * s.binH
	i0 := int((r.Lx - s.d.Region.Lx) / s.binW)
	i1 := int(math.Ceil((r.Hx - s.d.Region.Lx) / s.binW))
	j0 := int((r.Ly - s.d.Region.Ly) / s.binH)
	j1 := int(math.Ceil((r.Hy - s.d.Region.Ly) / s.binH))
	i0, j0 = clampIdx(i0, s.m), clampIdx(j0, s.m)
	i1, j1 = clampHi(i1, s.m), clampHi(j1, s.m)
	total := 0.0
	for j := j0; j < j1; j++ {
		by := s.d.Region.Ly + float64(j)*s.binH
		oy := math.Min(r.Hy, by+s.binH) - math.Max(r.Ly, by)
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			bx := s.d.Region.Lx + float64(i)*s.binW
			ox := math.Min(r.Hx, bx+s.binW) - math.Max(r.Lx, bx)
			if ox > 0 {
				total += s.covGrid[j*s.m+i] * (ox * oy / binArea)
			}
		}
	}
	return total
}

func (s *mlgState) totalMacroOverlap() float64 {
	return s.macroOverlapWorkers(1)
}

// macroOverlapWorkers sums pairwise macro overlap with one partial per
// leading macro (disjoint writes), reduced in macro order — the same
// float grouping at every worker count.
func (s *mlgState) macroOverlapWorkers(workers int) float64 {
	if len(s.macros) == 0 {
		return 0
	}
	parts := make([]float64, len(s.macros))
	parallel.For(workers, len(s.macros), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := s.d.Cells[s.macros[i]].Rect()
			acc := 0.0
			for j := i + 1; j < len(s.macros); j++ {
				acc += ri.Overlap(s.d.Cells[s.macros[j]].Rect())
			}
			parts[i] = acc
		}
	})
	total := 0.0
	for i := range parts {
		total += parts[i]
	}
	return total
}

// overlapWith returns the overlap of rectangle r with all macros except k.
func (s *mlgState) overlapWith(r geom.Rect, k int) float64 {
	total := 0.0
	for j, mj := range s.macros {
		if j == k {
			continue
		}
		total += r.Overlap(s.d.Cells[mj].Rect())
	}
	return total
}

// wirelengthOf returns the summed HPWL of the macro's nets.
func (s *mlgState) wirelengthOf(k int) float64 {
	total := 0.0
	for _, ni := range s.macroNets[k] {
		total += s.d.NetHPWL(ni)
	}
	return total
}

const (
	// mlgKappa scales the search radius and the overlap penalty per mLG
	// (outer) iteration, mlgMaxOuter bounds those iterations and
	// mlgGridM is the resolution of the standard-cell coverage grid the
	// D(v) term is read from.
	mlgKappa    = 1.5
	mlgMaxOuter = 30
	mlgGridM    = 64
)

// Macros runs the two-level annealing macro legalizer on the movable
// macros of d (standard cells are treated as fixed for the D term) and
// then fixes them in place. Positions must come from a converged mGP:
// only local shifts are explored (Sec. VI-A).
func Macros(d *netlist.Design, macros []int, opt MLGOptions) MLGResult {
	opt.defaults()
	res := MLGResult{}
	if len(macros) == 0 {
		res.Legal = true
		return res
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	t0 := time.Now()
	s := newMLGState(d, macros, mlgGridM, opt.Workers)
	opt.Telemetry.AddSpanTime("mLG", "state", time.Since(t0))
	res.WBefore, res.DBefore, res.OmBefore = s.W, s.D, s.Om

	muD := 1.0
	if s.D > 0 {
		muD = s.W / s.D
	}
	muO := 1.0
	if s.Om > 0 {
		muO = s.W / s.Om
	} else {
		muO = s.W
	}

	tAnneal := time.Now()
	kmax := opt.MovesPerMacro * len(macros)
	baseRadius := d.Region.W() / math.Sqrt(float64(len(macros))) * 0.05
	maxRadius := math.Min(d.Region.W(), d.Region.H()) / 4

	for outer := 0; outer < mlgMaxOuter && s.Om > 1e-9; outer++ {
		res.OuterIterations = outer + 1
		scale := math.Pow(mlgKappa, float64(outer))
		radius := math.Min(baseRadius*scale, maxRadius)
		// f is refreshed per mLG iteration; since the acceptance test
		// below is on the relative increase df/f, the kappa^j growth of
		// the paper's absolute Delta-f_max thresholds is already carried
		// by the mu_O term inside f.
		f := s.W + muD*s.D + muO*s.Om
		if f <= 0 {
			f = 1
		}
		const dfMax0, dfMaxEnd = 0.03, 0.0001
		for k := 0; k < kmax; k++ {
			frac := float64(k) / float64(kmax)
			dfMax := dfMax0 + (dfMaxEnd-dfMax0)*frac
			temp := dfMax / math.Ln2

			mk := rng.Intn(len(macros))
			mi := macros[mk]
			c := &d.Cells[mi]
			oldX, oldY := c.X, c.Y

			// Move repertoire: local shift, or (when the orientation
			// extension is enabled) a 90-degree rotation. The paper's
			// default follows the contest protocols (no rotation,
			// Sec. III) but notes the flexibility to add it.
			rotated := opt.AllowOrient && c.W != c.H && rng.Float64() < 0.2
			oldW := s.wirelengthOf(mk)
			oldD := s.dCov[mk]
			oldOv := s.overlapWith(c.Rect(), mk)
			if rotated {
				rotateMacro(d, mi)
			} else {
				// Random motion vector within the search radius, clamped.
				nx := oldX + (rng.Float64()*2-1)*radius
				ny := oldY + (rng.Float64()*2-1)*radius
				p := geom.ClampPoint(geom.Point{X: nx, Y: ny}, c.W, c.H, d.Region)
				c.X, c.Y = p.X, p.Y
			}
			newW := s.wirelengthOf(mk)
			newRect := c.Rect()
			newD := s.coverage(newRect)
			newOv := s.overlapWith(newRect, mk)

			df := (newW - oldW) + muD*(newD-oldD) + muO*(newOv-oldOv)
			res.Moves++
			accept := df <= 0
			if !accept {
				rel := df / f
				accept = rng.Float64() < math.Exp(-rel/temp)
			}
			if accept {
				res.Accepted++
				s.W += newW - oldW
				s.D += newD - oldD
				s.dCov[mk] = newD
				s.Om += newOv - oldOv
				for _, ni := range s.macroNets[mk] {
					s.netHPWL[ni] = d.NetHPWL(ni)
				}
			} else if rotated {
				// Three more quarter turns restore the original
				// orientation and pin offsets exactly.
				rotateMacro(d, mi)
				rotateMacro(d, mi)
				rotateMacro(d, mi)
				c.X, c.Y = oldX, oldY
			} else {
				c.X, c.Y = oldX, oldY
			}
		}
		muO *= mlgKappa
		opt.Telemetry.Sample(telemetry.Sample{
			Stage: "mLG", Iteration: outer,
			HPWL: s.W, Energy: s.D, Overlap: s.Om,
		})
	}
	opt.Telemetry.Count("mLG/moves", int64(res.Moves))
	opt.Telemetry.Count("mLG/accepted", int64(res.Accepted))
	opt.Telemetry.AddSpanTime("mLG", "anneal", time.Since(tAnneal))

	// Deterministic cleanup: resolve any residual overlap by shoving
	// pairs apart along the cheaper axis.
	shoveApart(d, macros, 200)
	s.Om = s.totalMacroOverlap()

	res.WAfter = d.HPWL()
	res.DAfter = 0
	for k := range macros {
		s.dCov[k] = s.coverage(d.Cells[macros[k]].Rect())
		res.DAfter += s.dCov[k]
	}
	res.OmAfter = s.totalMacroOverlap()
	res.Legal = res.OmAfter <= 1e-6
	for _, mi := range macros {
		d.Cells[mi].Fixed = true
	}
	return res
}

// rotateMacro turns macro mi by 90 degrees counterclockwise about its
// center: width and height swap and every pin offset (ox, oy) maps to
// (-oy, ox). The footprint is re-clamped into the region.
func rotateMacro(d *netlist.Design, mi int) {
	c := &d.Cells[mi]
	c.W, c.H = c.H, c.W
	for _, pi := range c.Pins {
		p := &d.Pins[pi]
		p.Ox, p.Oy = -p.Oy, p.Ox
	}
	pt := geom.ClampPoint(geom.Point{X: c.X, Y: c.Y}, c.W, c.H, d.Region)
	c.X, c.Y = pt.X, pt.Y
}

// shoveApart removes residual pairwise macro overlaps by translating
// the lighter macro of each overlapping pair along the axis needing the
// smaller shift, clamped to the region. Iterates up to maxPasses.
func shoveApart(d *netlist.Design, macros []int, maxPasses int) {
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for i := 0; i < len(macros); i++ {
			ci := &d.Cells[macros[i]]
			ri := ci.Rect()
			for j := i + 1; j < len(macros); j++ {
				cj := &d.Cells[macros[j]]
				rj := cj.Rect()
				if !ri.Intersects(rj) {
					continue
				}
				// Overlap extents.
				ox := math.Min(ri.Hx, rj.Hx) - math.Max(ri.Lx, rj.Lx)
				oy := math.Min(ri.Hy, rj.Hy) - math.Max(ri.Ly, rj.Ly)
				// Move the smaller macro.
				mv := cj
				if ci.Area() < cj.Area() {
					mv = ci
				}
				ot := ci
				if mv == ci {
					ot = cj
				}
				if ox <= oy {
					if mv.X < ot.X {
						mv.X -= ox
					} else {
						mv.X += ox
					}
				} else {
					if mv.Y < ot.Y {
						mv.Y -= oy
					} else {
						mv.Y += oy
					}
				}
				p := geom.ClampPoint(geom.Point{X: mv.X, Y: mv.Y}, mv.W, mv.H, d.Region)
				mv.X, mv.Y = p.X, p.Y
				ri = ci.Rect()
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

func clampIdx(i, m int) int {
	if i < 0 {
		return 0
	}
	if i >= m {
		return m - 1
	}
	return i
}

func clampHi(i, m int) int {
	if i < 0 {
		return 0
	}
	if i > m {
		return m
	}
	return i
}
