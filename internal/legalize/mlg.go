package legalize

import (
	"math"
	"math/rand"
	"time"

	"eplace/internal/geom"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/telemetry"
)

// mlgMovesPerMacro is the inner SA loop length, in moves per macro.
const mlgMovesPerMacro = 400

// MLGOptions tunes the annealing macro legalizer.
type MLGOptions struct {
	// Seed drives the annealer (default 1).
	Seed int64
	// AllowOrient enables 90-degree macro rotation moves, the extension
	// the paper mentions but disables to follow contest protocols
	// (Sec. III). Pin offsets rotate with the macro.
	AllowOrient bool
	// Telemetry, when non-nil, receives one Sample per outer iteration
	// (stage "mLG": HPWL=W, Energy=D, Overlap=Om, the Fig. 5 metrics)
	// plus move/accept counters.
	Telemetry *telemetry.Recorder
}

func (o *MLGOptions) defaults() {
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
	// Turns holds each macro's quarter turns (0-3, counterclockwise) in
	// the order Macros was given them; nil when no turn was accepted.
	Turns []uint8
}

// mlgState evaluates f_mLG = W + muD*D + muO*Om incrementally. It is
// built serially: on the mixed-size flow the build is about half of
// mLG's time and a millisecond or two of the run.
type mlgState struct {
	cv     *netlist.Compiled
	macros []int
	// cov.Fixed[j*m+i] = std-cell area in bin (i, j), fixed during mLG.
	cov *grid.Grid

	// Cached per-macro contributions.
	dCov []float64 // D contribution of each macro
	// macroNets lists nets per macro.
	macroNets [][]int

	W, D, Om float64
}

func newMLGState(cv *netlist.Compiled, macros []int, gridM int) *mlgState {
	d := cv.Design()
	s := &mlgState{
		cv: cv, macros: macros,
		cov:       grid.New(d.Region, gridM),
		dCov:      make([]float64, len(macros)),
		macroNets: make([][]int, len(macros)),
		W:         cv.HPWL(),
	}
	// Rasterize standard cells (movable or fixed, non-macro, non-filler).
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.StdCell {
			s.cov.AddFixed(cv.Rect(i))
		}
	}
	for k, mi := range macros {
		// Determinism contract: seen is membership-only; macroNets[k] is
		// built in the macro's deterministic pin order.
		seen := map[int]bool{}
		for _, ni := range cv.CellNet[cv.CellNetOff[mi]:cv.CellNetOff[mi+1]] {
			if !seen[int(ni)] {
				seen[int(ni)] = true
				s.macroNets[k] = append(s.macroNets[k], int(ni))
			}
		}
		s.dCov[k] = s.coverage(cv.Rect(mi))
		s.D += s.dCov[k]
	}
	s.Om = s.totalMacroOverlap()
	return s
}

// coverage returns the std-cell area under rectangle r: the per-macro
// D(v) contribution, computed from the fixed coverage grid.
func (s *mlgState) coverage(r geom.Rect) float64 {
	g := s.cov
	r = r.Intersect(g.Region)
	if r.Empty() {
		return 0
	}
	binArea := g.BinW * g.BinH
	i0 := int((r.Lx - g.Region.Lx) / g.BinW)
	i1 := int(math.Ceil((r.Hx - g.Region.Lx) / g.BinW))
	j0 := int((r.Ly - g.Region.Ly) / g.BinH)
	j1 := int(math.Ceil((r.Hy - g.Region.Ly) / g.BinH))
	i0, j0 = clampIdx(i0, g.M), clampIdx(j0, g.M)
	i1, j1 = clampHi(i1, g.M), clampHi(j1, g.M)
	total := 0.0
	for j := j0; j < j1; j++ {
		by := g.Region.Ly + float64(j)*g.BinH
		oy := math.Min(r.Hy, by+g.BinH) - math.Max(r.Ly, by)
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			bx := g.Region.Lx + float64(i)*g.BinW
			ox := math.Min(r.Hx, bx+g.BinW) - math.Max(r.Lx, bx)
			if ox > 0 {
				total += g.Fixed[j*g.M+i] * (ox * oy / binArea)
			}
		}
	}
	return total
}

// totalMacroOverlap sums pairwise macro overlap, one partial per leading
// macro, folded in macro order.
func (s *mlgState) totalMacroOverlap() float64 {
	total := 0.0
	for i, mi := range s.macros {
		ri := s.cv.Rect(mi)
		acc := 0.0
		for _, mj := range s.macros[i+1:] {
			acc += ri.Overlap(s.cv.Rect(mj))
		}
		total += acc
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
		total += r.Overlap(s.cv.Rect(mj))
	}
	return total
}

// wirelengthOf returns the summed HPWL of the macro's nets.
func (s *mlgState) wirelengthOf(k int) float64 {
	total := 0.0
	for _, ni := range s.macroNets[k] {
		total += s.cv.NetHPWL(ni)
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
// macros of the design cv was compiled from (standard cells are treated
// as fixed for the D term) and then fixes them in place. It reads and
// moves positions in the view; a turn (AllowOrient) edits the design and
// the view together (netlist.Compiled.Turn). Positions must come from a
// converged mGP: only local shifts are explored (Sec. VI-A).
func Macros(cv *netlist.Compiled, macros []int, opt MLGOptions) MLGResult {
	opt.defaults()
	res := MLGResult{}
	if len(macros) == 0 {
		res.Legal = true
		return res
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	t0 := time.Now()
	d := cv.Design()
	s := newMLGState(cv, macros, mlgGridM)
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
	kmax := mlgMovesPerMacro * len(macros)
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
			oldX, oldY := cv.PosX[mi], cv.PosY[mi]

			// Move repertoire: local shift, or (when the orientation
			// extension is enabled) a 90-degree rotation. The paper's
			// default follows the contest protocols (no rotation,
			// Sec. III) but notes the flexibility to add it.
			rotated := opt.AllowOrient && cv.CellW[mi] != cv.CellH[mi] && rng.Float64() < 0.2
			oldW := s.wirelengthOf(mk)
			oldD := s.dCov[mk]
			oldOv := s.overlapWith(cv.Rect(mi), mk)
			if rotated {
				cv.Turn(mi)
				clampInto(cv, mi, oldX, oldY)
			} else {
				// Random motion vector within the search radius, clamped.
				nx := oldX + (rng.Float64()*2-1)*radius
				ny := oldY + (rng.Float64()*2-1)*radius
				clampInto(cv, mi, nx, ny)
			}
			newW := s.wirelengthOf(mk)
			newRect := cv.Rect(mi)
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
				if rotated {
					if res.Turns == nil {
						res.Turns = make([]uint8, len(macros))
					}
					res.Turns[mk] = (res.Turns[mk] + 1) % 4
				}
			} else {
				if rotated {
					// Three more quarter turns restore the original
					// orientation and pin offsets exactly.
					cv.Turn(mi)
					cv.Turn(mi)
					cv.Turn(mi)
				}
				cv.PosX[mi], cv.PosY[mi] = oldX, oldY
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
	shoveApart(cv, macros, 200)

	res.WAfter = cv.HPWL()
	res.DAfter = 0
	for _, mi := range macros {
		res.DAfter += s.coverage(cv.Rect(mi))
	}
	res.OmAfter = s.totalMacroOverlap()
	res.Legal = res.OmAfter <= 1e-6
	FixMacros(d, macros)
	return res
}

// FixMacros fixes the macros mLG legalized: from mLG on they are
// obstacles and fixed charge to every later stage (Sec. VI-A). Macros
// calls it last, and a flow resumed past mLG calls it again. It is the
// only place a placement stage writes Cell.Fixed.
func FixMacros(d *netlist.Design, macros []int) {
	for _, mi := range macros {
		d.Cells[mi].Fixed = true
	}
}

// clampInto places macro mi at (x, y), clamped so that its footprint
// stays inside the region.
func clampInto(cv *netlist.Compiled, mi int, x, y float64) {
	p := geom.ClampPoint(geom.Point{X: x, Y: y}, cv.CellW[mi], cv.CellH[mi], cv.Design().Region)
	cv.PosX[mi], cv.PosY[mi] = p.X, p.Y
}

// shoveApart removes residual pairwise macro overlaps by translating
// the lighter macro of each overlapping pair along the axis needing the
// smaller shift, clamped to the region. Iterates up to maxPasses.
func shoveApart(cv *netlist.Compiled, macros []int, maxPasses int) {
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for i := 0; i < len(macros); i++ {
			ci := macros[i]
			ri := cv.Rect(ci)
			for j := i + 1; j < len(macros); j++ {
				cj := macros[j]
				rj := cv.Rect(cj)
				if !ri.Intersects(rj) {
					continue
				}
				// Overlap extents.
				ox := math.Min(ri.Hx, rj.Hx) - math.Max(ri.Lx, rj.Lx)
				oy := math.Min(ri.Hy, rj.Hy) - math.Max(ri.Ly, rj.Ly)
				// Move the smaller macro.
				mv, ot := cj, ci
				if cv.CellW[ci]*cv.CellH[ci] < cv.CellW[cj]*cv.CellH[cj] {
					mv, ot = ci, cj
				}
				x, y := cv.PosX[mv], cv.PosY[mv]
				if ox <= oy {
					if x < cv.PosX[ot] {
						x -= ox
					} else {
						x += ox
					}
				} else {
					if y < cv.PosY[ot] {
						y -= oy
					} else {
						y += oy
					}
				}
				clampInto(cv, mv, x, y)
				ri = cv.Rect(ci)
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
