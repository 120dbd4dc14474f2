package netlist

import (
	"fmt"
	"math"
)

// Compiled is an immutable, data-oriented view of a Design built for the
// per-iteration kernels: a CSR (compressed sparse row) encoding of the
// net -> pin incidence plus structure-of-arrays copies of the cell
// geometry. The optimizer stages build one view per stage (topology is
// frozen for the whole stage) and every hot kernel — smooth wirelength,
// density rasterization, force integration, exact HPWL — walks the flat
// int32/float64 arrays instead of pointer-chasing Net -> Pin -> Cell
// through the Go structs.
//
// Layout:
//
//   - NetOff[ni] .. NetOff[ni+1] is net ni's pin slot range. Pin slots
//     are net-major in net order, and within a net in the net's pin
//     order, so ascending slot order IS the serial (net, pin) evaluation
//     order the determinism contract fixes. NetOff doubles as the
//     pin-count prefix sum used for pin-balanced work sharding.
//   - PinCell[s] is the owning cell of slot s (-1 for a floating
//     terminal); PinOx/PinOy are the pin offsets from the cell center.
//     PinIndex[s] maps the slot back to the Design.Pins index.
//   - PosX/PosY are the live cell centers, indexed by cell. The engine
//     writes them once per iteration (SetPositions) instead of
//     scattering into Cell structs and re-gathering in every kernel;
//     models owning a private view refresh them from the structs with
//     SyncGeometry before evaluating.
//   - CellW/CellH/Filler mirror the cell extents and filler flags for
//     the density rasterizer; NetW caches each net's effective weight.
//
// A Compiled view is NOT safe for concurrent mutation: SetPositions and
// the Sync methods must not race with readers. The read-only kernels may
// share it freely between evaluations.
type Compiled struct {
	d *Design

	// CSR topology (frozen at Compile time).
	NetOff   []int32
	PinCell  []int32
	PinIndex []int32
	PinOx    []float64
	PinOy    []float64

	// Per-net effective weights (refresh with SyncNetWeights).
	NetW []float64

	// SoA cell geometry. PosX/PosY are live positions; CellW/CellH and
	// Filler change only through SyncGeometry.
	PosX, PosY   []float64
	CellW, CellH []float64
	Filler       []bool
}

// Compile builds the flat view of d at its current positions. The
// net/pin topology must not change for the lifetime of the view;
// positions, sizes and net weights can be re-synced.
func (d *Design) Compile() *Compiled {
	if len(d.Pins) > math.MaxInt32 || len(d.Cells) > math.MaxInt32 {
		panic(fmt.Sprintf("netlist: design too large to compile (%d pins, %d cells)",
			len(d.Pins), len(d.Cells)))
	}
	cv := &Compiled{
		d:      d,
		NetOff: make([]int32, len(d.Nets)+1),
		NetW:   make([]float64, len(d.Nets)),
	}
	total := 0
	for ni := range d.Nets {
		total += len(d.Nets[ni].Pins)
		cv.NetOff[ni+1] = int32(total)
		cv.NetW[ni] = d.Nets[ni].EffWeight()
	}
	cv.PinCell = make([]int32, total)
	cv.PinIndex = make([]int32, total)
	cv.PinOx = make([]float64, total)
	cv.PinOy = make([]float64, total)
	s := 0
	for ni := range d.Nets {
		for _, pi := range d.Nets[ni].Pins {
			p := &d.Pins[pi]
			cv.PinCell[s] = int32(p.Cell)
			cv.PinIndex[s] = int32(pi)
			cv.PinOx[s] = p.Ox
			cv.PinOy[s] = p.Oy
			s++
		}
	}
	cv.PosX = make([]float64, len(d.Cells))
	cv.PosY = make([]float64, len(d.Cells))
	cv.CellW = make([]float64, len(d.Cells))
	cv.CellH = make([]float64, len(d.Cells))
	cv.Filler = make([]bool, len(d.Cells))
	cv.SyncGeometry()
	return cv
}

// Design returns the design the view was compiled from.
func (cv *Compiled) Design() *Design { return cv.d }

// NumPinSlots returns the total number of CSR pin slots.
func (cv *Compiled) NumPinSlots() int { return len(cv.PinCell) }

// SyncGeometry refreshes the SoA geometry arrays (positions, extents,
// filler flags) from the Cell structs, growing them if cells were
// appended since Compile. Models that own a private view call this
// before every evaluation so direct Cell mutations stay visible; the
// engine, which writes positions through SetPositions, never needs to.
func (cv *Compiled) SyncGeometry() {
	d := cv.d
	if len(d.Cells) > len(cv.PosX) {
		cv.PosX = make([]float64, len(d.Cells))
		cv.PosY = make([]float64, len(d.Cells))
		cv.CellW = make([]float64, len(d.Cells))
		cv.CellH = make([]float64, len(d.Cells))
		cv.Filler = make([]bool, len(d.Cells))
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		cv.PosX[i] = c.X
		cv.PosY[i] = c.Y
		cv.CellW[i] = c.W
		cv.CellH[i] = c.H
		cv.Filler[i] = c.Kind == Filler
	}
}

// SyncNetWeights refreshes the cached effective net weights.
func (cv *Compiled) SyncNetWeights() {
	for ni := range cv.d.Nets {
		cv.NetW[ni] = cv.d.Nets[ni].EffWeight()
	}
}

// SetPositions writes a flat {x_1..x_n, y_1..y_n} solution vector into
// the view's position arrays for the cells in idx — the engine's
// once-per-iteration scatter. Cell structs are left untouched; use
// Design.SetPositions for the final write-back.
func (cv *Compiled) SetPositions(idx []int, v []float64) {
	n := len(idx)
	for k, ci := range idx {
		cv.PosX[ci] = v[k]
		cv.PosY[ci] = v[k+n]
	}
}

// PinPosSlot returns the absolute position of CSR pin slot s from the
// SoA arrays, matching Design.PinPos bit for bit.
func (cv *Compiled) PinPosSlot(s int) (x, y float64) {
	ci := cv.PinCell[s]
	if ci < 0 {
		return cv.PinOx[s], cv.PinOy[s]
	}
	return cv.PosX[ci] + cv.PinOx[s], cv.PosY[ci] + cv.PinOy[s]
}

// NetHPWL returns the weighted half-perimeter wirelength of net ni at
// the view's positions, bit-for-bit identical to Design.NetHPWL at the
// same positions and weights.
func (cv *Compiled) NetHPWL(ni int) float64 {
	o0, o1 := int(cv.NetOff[ni]), int(cv.NetOff[ni+1])
	if o1-o0 < 2 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for s := o0; s < o1; s++ {
		x, y := cv.PinPosSlot(s)
		minX = min(minX, x)
		maxX = max(maxX, x)
		minY = min(minY, y)
		maxY = max(maxY, y)
	}
	return cv.NetW[ni] * ((maxX - minX) + (maxY - minY))
}

// HPWL returns the total weighted half-perimeter wirelength (Eq. 1)
// over the flat view, summing nets in index order exactly like
// Design.HPWL so the two are bitwise-interchangeable. It allocates
// nothing, making it safe for the per-iteration engine loop.
func (cv *Compiled) HPWL() float64 {
	total := 0.0
	for ni := 0; ni < len(cv.NetW); ni++ {
		total += cv.NetHPWL(ni)
	}
	return total
}
