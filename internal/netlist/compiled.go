package netlist

import (
	"fmt"
	"math"
)

// Compiled is the flat, data-oriented form of a Design: a CSR (compressed
// sparse row) encoding of the net -> pin incidence and of the cell -> net
// incidence, plus structure-of-arrays copies of the cell geometry. A flow
// compiles each design once and lends the view to every stage (mIP, the
// global placements, cDP); every hot kernel (smooth wirelength, density
// rasterization, force integration, exact HPWL, cDP's trial pricing)
// walks the flat int32/float64 arrays instead of pointer-chasing
// Net -> Pin -> Cell through the Go structs.
//
// Ownership: the Cell structs are the truth between stages. A stage
// calls Sync on entry, writes positions into the view once per iteration
// or pass, and writes them back to the structs when it ends.
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
//   - CellNet[CellNetOff[ci]:CellNetOff[ci+1]] is the net of each of cell
//     ci's pins in Cell.Pins order (not deduplicated); cells appended
//     after Compile, the fillers, have empty ranges.
//   - PosX/PosY are the live cell centers, indexed by cell; CellW/CellH
//     and Filler mirror the cell extents and filler flags for the density
//     rasterizer; NetW caches each net's effective weight. Fixed flags
//     flip between stages and stay out of the view.
//
// A Compiled view is NOT safe for concurrent mutation: SetPositions and
// Sync must not race with readers. The read-only kernels may share it
// freely between evaluations.
type Compiled struct {
	d *Design

	// CSR topology, frozen at Compile time; Sync refreshes the pin offsets
	// and gives appended cells their empty CellNetOff ranges.
	NetOff     []int32
	PinCell    []int32
	PinOx      []float64
	PinOy      []float64
	CellNetOff []int32
	CellNet    []int32

	// Per-net effective weights and SoA cell geometry, len(d.Cells) long
	// as of the last Sync.
	NetW         []float64
	PosX, PosY   []float64
	CellW, CellH []float64
	Filler       []bool
}

// Compile builds the flat view of d as it stands. Which pin sits on which
// cell and net must not change for the lifetime of the view; everything
// else a stage boundary can change is brought up to date by Sync.
func (d *Design) Compile() *Compiled {
	if len(d.Pins) > math.MaxInt32 || len(d.Cells) > math.MaxInt32 {
		panic(fmt.Sprintf("netlist: design too large to compile (%d pins, %d cells)",
			len(d.Pins), len(d.Cells)))
	}
	cv := &Compiled{
		d:          d,
		NetOff:     make([]int32, 1, len(d.Nets)+1),
		NetW:       make([]float64, len(d.Nets)),
		PinCell:    make([]int32, 0, len(d.Pins)),
		CellNetOff: make([]int32, 1, len(d.Cells)+1),
		CellNet:    make([]int32, 0, len(d.Pins)),
	}
	for ni := range d.Nets {
		for _, pi := range d.Nets[ni].Pins {
			cv.PinCell = append(cv.PinCell, int32(d.Pins[pi].Cell))
		}
		cv.NetOff = append(cv.NetOff, int32(len(cv.PinCell)))
	}
	for ci := range d.Cells {
		for _, pi := range d.Cells[ci].Pins {
			cv.CellNet = append(cv.CellNet, int32(d.Pins[pi].Net))
		}
		cv.CellNetOff = append(cv.CellNetOff, int32(len(cv.CellNet)))
	}
	cv.PinOx = make([]float64, len(cv.PinCell))
	cv.PinOy = make([]float64, len(cv.PinCell))
	cv.Sync()
	return cv
}

// Design returns the design the view was compiled from.
func (cv *Compiled) Design() *Design { return cv.d }

// NumPinSlots returns the total number of CSR pin slots.
func (cv *Compiled) NumPinSlots() int { return len(cv.PinCell) }

// resized returns s with length n, reallocated only when n exceeds its
// capacity; the contents are the caller's to rewrite.
func resized[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// Sync refreshes everything a stage boundary can change from the structs:
// positions, extents and filler flags of the design's current cells (the
// arrays follow d.Cells as InsertFillers grows and RemoveFillers shrinks
// it), net weights, and pin offsets, which mLG rewrites together with W/H
// when it turns a macro. One O(cells + pins) pass that allocates only
// when the design has outgrown the arrays.
func (cv *Compiled) Sync() {
	d := cv.d
	n := len(d.Cells)
	cv.PosX, cv.PosY = resized(cv.PosX, n), resized(cv.PosY, n)
	cv.CellW, cv.CellH = resized(cv.CellW, n), resized(cv.CellH, n)
	cv.Filler = resized(cv.Filler, n)
	cv.CellNetOff = cv.CellNetOff[:min(n+1, len(cv.CellNetOff))]
	for len(cv.CellNetOff) <= n {
		cv.CellNetOff = append(cv.CellNetOff, int32(len(cv.CellNet)))
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		cv.PosX[i], cv.PosY[i] = c.X, c.Y
		cv.CellW[i], cv.CellH[i] = c.W, c.H
		cv.Filler[i] = c.Kind == Filler
	}
	s := 0
	for ni := range d.Nets {
		cv.NetW[ni] = d.Nets[ni].EffWeight()
		for _, pi := range d.Nets[ni].Pins {
			cv.PinOx[s], cv.PinOy[s] = d.Pins[pi].Ox, d.Pins[pi].Oy
			s++
		}
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
