// Package qp implements the quadratic mixed-size initial placement
// (mIP): total wirelength is quadratically minimized with the
// bound-to-bound (B2B) net model, solved per axis by preconditioned
// conjugate gradient, with the model rebuilt from the new positions for
// a few rounds. The result has low wirelength and high overlap, the
// intended starting point v_mIP for mGP (Sec. III).
package qp

import (
	"math"
	"time"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/sparse"
)

const (
	// maxRounds caps how many times Place rebuilds the B2B model, and
	// stallFrac ends the rounds earlier: Place stops after a round that
	// lowers HPWL by less than this fraction. On a 5 000-cell circuit the
	// six rounds reach 17 928, 17 355, 17 147, 17 050, 17 001, 16 974:
	// the last three together buy 1%, of a seed that mGP then spreads to
	// eight times that wirelength.
	maxRounds = 6
	stallFrac = 0.01
	// cgTol is the relative residual every solve stops at. Each system is
	// relinearized in the next round and warm-started from the previous
	// one, so three digits are enough: on the same circuit the twelve
	// solves take 2 071 iterations at 1e-6; at 1e-3 the eight that are
	// left take 124. With both rules in place the benchmark's final HPWL,
	// median over seeds 1 to 10, moves by -0.1% (flat 5K), -0.4%
	// (mixed-size 4K) and +0.3% (V-cycle 20K), while a single design
	// moves by +-2.5% whenever its seed is perturbed at all. cgMaxIter
	// bounds a solve that does not get there.
	cgTol     = 1e-3
	cgMaxIter = 300
	// centerAnchor is Place's tiny pull toward the region center on every
	// movable cell, which keeps the system positive definite for cells
	// with no path to a fixed pin.
	centerAnchor = 1e-6
)

// Why Place stopped.
const (
	StopHPWLStall    = "hpwl-stall"
	StopRoundCap     = "round-cap"
	StopSolverFailed = "solver-failed"
)

// Result reports one initial placement.
type Result struct {
	// Rounds is the number of completed B2B rounds, CGIterations the
	// conjugate-gradient iterations of all their solves.
	Rounds       int
	CGIterations int
	// HPWL is the wirelength after each completed round.
	HPWL []float64
	// Stop is the reason the round loop ended (a Stop* constant).
	Stop string
	// Solve is the wall time spent in conjugate gradient; Assemble is the
	// rest of the model's time: linearizing and building the systems,
	// evaluating HPWL after each round.
	Assemble, Solve time.Duration
}

// Place quadratically minimizes wirelength over the cells in idx,
// writing positions back to the design (clamped inside the region).
// Cells not in idx are fixed terminals. If a solve fails (a non-finite
// net weight or coordinate makes the system indefinite), the cells keep
// the positions of the last round that solved.
func Place(d *netlist.Design, idx []int) Result {
	cv := d.Compile()
	res := PlaceCompiled(cv, idx)
	cv.Store()
	return res
}

// PlaceCompiled is Place over a caller-owned view of the design, which
// holds the positions: it reads and writes the view alone.
func PlaceCompiled(cv *netlist.Compiled, idx []int) Result {
	var res Result
	d := cv.Design()
	n := len(idx)
	if n == 0 {
		return res
	}
	center := d.Region.Center()
	// Start every movable cell at the region center with a deterministic
	// microscopic spread so the B2B boundary pins are well defined.
	for k, ci := range idx {
		frac := float64(k) / float64(n)
		cv.PosX[ci] = center.X + (frac-0.5)*1e-3*d.Region.W()
		cv.PosY[ci] = center.Y + (math.Mod(frac*617.0, 1.0)-0.5)*1e-3*d.Region.H()
	}
	t0 := time.Now()
	m := NewModel(cv, idx)
	res.Stop = StopRoundCap
	for res.Rounds < maxRounds {
		if !m.Solve(nil, centerAnchor) {
			res.Stop = StopSolverFailed
			break
		}
		res.Rounds++
		res.HPWL = append(res.HPWL, m.cv.HPWL())
		if k := res.Rounds - 1; k > 0 && res.HPWL[k-1]-res.HPWL[k] < stallFrac*res.HPWL[k-1] {
			res.Stop = StopHPWLStall
			break
		}
	}
	res.CGIterations, res.Solve = m.cgIterations, m.solveTime
	res.Assemble = time.Since(t0) - res.Solve
	for _, ci := range idx {
		p := geom.ClampPoint(geom.Point{X: cv.PosX[ci], Y: cv.PosY[ci]}, cv.CellW[ci], cv.CellH[ci], d.Region)
		cv.PosX[ci], cv.PosY[ci] = p.X, p.Y
	}
	return res
}

// Model is the B2B quadratic wirelength system of a design's movable
// cells: the compiled view it reads pin coordinates from and the
// assembler, solver and vectors that every solve of the design shares.
type Model struct {
	cv  *netlist.Compiled
	idx []int
	// pinVar maps a pin slot of the view to the unknown its cell is, or
	// -1 for a pin on a fixed cell or a floating terminal.
	pinVar []int32
	// coord holds every pin slot's coordinate along the axis being
	// assembled and rhs that axis's right-hand side; x holds the unknowns
	// of both axes, {x..., y...}.
	coord, rhs, x []float64
	minDist       float64
	asm           sparse.Assembler
	cg            sparse.Solver

	// cgIterations and solveTime accumulate the conjugate-gradient
	// iterations and wall time of every Solve call.
	cgIterations int
	solveTime    time.Duration
}

// NewModel sizes the buffers for the unknowns idx of the design cv was
// compiled from. The design's topology must not change while the model
// is in use; every Solve reads the positions from the view.
func NewModel(cv *netlist.Compiled, idx []int) *Model {
	d := cv.Design()
	m := &Model{
		cv: cv, idx: idx,
		pinVar:  make([]int32, cv.NumPinSlots()),
		coord:   make([]float64, cv.NumPinSlots()),
		rhs:     make([]float64, len(idx)),
		x:       make([]float64, 2*len(idx)),
		minDist: 1e-4 * math.Max(d.Region.W(), d.Region.H()),
	}
	slot := make([]int32, len(d.Cells))
	for i := range slot {
		slot[i] = -1
	}
	for k, ci := range idx {
		slot[ci] = int32(k)
	}
	for s, ci := range cv.PinCell {
		m.pinVar[s] = -1
		if ci >= 0 {
			m.pinVar[s] = slot[ci]
		}
	}
	// A net of degree deg >= 2 stamps 2(deg-2) inner springs and the
	// boundary pair (see assemble): every round and axis fits the system
	// sized here.
	springs := 0
	for ni := range cv.NetW {
		if deg := int(cv.NetOff[ni+1] - cv.NetOff[ni]); deg >= 2 {
			springs += 2*deg - 3
		}
	}
	m.asm.Reserve(len(idx), springs)
	return m
}

// Solve runs one B2B round from the view's current positions: along
// each axis the model is linearized there, every unknown k is tied to
// anchors[k] (nil = the region center) by a spring of weight w, and the
// system is solved, warm-started from the current positions. It writes
// the solution to the view and reports true; when a solve breaks down or
// yields a non-finite coordinate it reports false and leaves the view's
// positions as they were.
func (m *Model) Solve(anchors []geom.Point, w float64) bool {
	if !m.solveAxis(true, anchors, w) || !m.solveAxis(false, anchors, w) {
		return false
	}
	m.cv.SetPositions(m.idx, m.x)
	return true
}

// solveAxis builds and solves the system along one axis into that axis's
// half of m.x. Neither axis's system reads the other's coordinates.
func (m *Model) solveAxis(xAxis bool, anchors []geom.Point, w float64) bool {
	a := m.assemble(xAxis, anchors, w)
	n := len(m.idx)
	pos, x := m.cv.PosY, m.x[n:]
	if xAxis {
		pos, x = m.cv.PosX, m.x[:n]
	}
	for k, ci := range m.idx {
		x[k] = pos[ci]
	}
	t0 := time.Now()
	res := m.cg.Solve(a, m.rhs, x, cgTol, cgMaxIter)
	m.solveTime += time.Since(t0)
	m.cgIterations += res.Iterations
	if res.Breakdown {
		return false
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// assemble linearizes the B2B model along one axis at the view's
// positions: it fills m.rhs and returns the matrix, which lives in the
// model's assembler until the next call.
func (m *Model) assemble(xAxis bool, anchors []geom.Point, w float64) *sparse.CSR {
	cv, coord, rhs := m.cv, m.coord, m.rhs
	pos, off := cv.PosY, cv.PinOy
	if xAxis {
		pos, off = cv.PosX, cv.PinOx
	}
	for s, ci := range cv.PinCell {
		coord[s] = off[s]
		if ci >= 0 {
			coord[s] += pos[ci]
		}
	}
	m.asm.Reset(len(m.idx))
	clear(rhs)
	for ni, nw := range cv.NetW {
		o0, o1 := int(cv.NetOff[ni]), int(cv.NetOff[ni+1])
		if o1-o0 < 2 {
			continue
		}
		// Boundary pins along this axis: the first slot holding the
		// minimum and the first holding the maximum.
		lo, hi := o0, o0
		for s := o0 + 1; s < o1; s++ {
			if coord[s] < coord[lo] {
				lo = s
			}
			if coord[s] > coord[hi] {
				hi = s
			}
		}
		if lo == hi {
			// Every pin sits at one coordinate, so both are the first slot.
			hi = o0 + 1
		}
		// B2B: every inner pin connects to both boundary pins with weight
		// w_e * 2 / ((deg-1) * dist). The boundary pair carries that
		// weight twice, which is the model every recorded result of this
		// placer was measured with.
		base := 2 * nw / float64(o1-o0-1)
		for s := o0; s < o1; s++ {
			if s != lo && s != hi {
				m.stamp(s, lo, base, off)
				m.stamp(s, hi, base, off)
			}
		}
		m.stamp(lo, hi, 2*base, off)
	}
	anchor := cv.Design().Region.Center()
	for k := range rhs {
		if anchors != nil {
			anchor = anchors[k]
		}
		m.asm.AddDiag(k, w)
		if xAxis {
			rhs[k] += w * anchor.X
		} else {
			rhs[k] += w * anchor.Y
		}
	}
	return m.asm.Build()
}

// stamp adds the spring between pin slots p and q, base/distance
// strong, to the system, folding fixed endpoints and the pin offsets
// off into the right-hand side.
func (m *Model) stamp(p, q int, base float64, off []float64) {
	dist := math.Abs(m.coord[p] - m.coord[q])
	if dist < m.minDist {
		dist = m.minDist
	}
	w := base / dist
	pv, qv := int(m.pinVar[p]), int(m.pinVar[q])
	switch {
	case pv >= 0 && qv >= 0:
		// Spring on (x_p + off_p) - (x_q + off_q).
		m.asm.AddSym(pv, qv, w)
		m.rhs[pv] += w * (off[q] - off[p])
		m.rhs[qv] += w * (off[p] - off[q])
	case pv >= 0:
		m.asm.AddDiag(pv, w)
		m.rhs[pv] += w * (m.coord[q] - off[p])
	case qv >= 0:
		m.asm.AddDiag(qv, w)
		m.rhs[qv] += w * (m.coord[p] - off[q])
	}
}
