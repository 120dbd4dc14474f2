package netlist

import (
	"fmt"
	"math"

	"eplace/internal/reuse"
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
// Ownership: the Cell structs are the truth between stages for the
// design's cells. A stage calls Sync on entry, writes positions into the
// view once per iteration or pass, and writes them back to the structs
// when it ends (WriteBack). The view alone owns the fillers, the
// whitespace charge of the global placements (Sec. III): AddFillers
// appends them after the design's cells and DropFillers removes them, so
// a Design never holds one.
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
//     ci's pins in Cell.Pins order (not deduplicated); the fillers have
//     empty ranges.
//   - PosX/PosY are the live centers, indexed by cell, then by filler from
//     index len(Design().Cells) on; CellW/CellH and Filler are the
//     extents and filler flags the density rasterizer reads; NetW caches
//     each net's effective weight. Fixed flags stay out of the view: no
//     kernel reads them, and the stages that hold cells pass them as
//     arguments.
//
// A Compiled view is NOT safe for concurrent mutation: SetPositions and
// Sync must not race with readers. The read-only kernels may share it
// freely between evaluations.
type Compiled struct {
	d *Design

	// CSR topology, frozen at Compile time; Sync refreshes the pin
	// offsets, and each filler has an empty CellNetOff range.
	NetOff     []int32
	PinCell    []int32
	PinOx      []float64
	PinOy      []float64
	CellNetOff []int32
	CellNet    []int32

	// Per-net effective weights, and the SoA geometry of the design's
	// cells followed by the fillers'.
	NetW         []float64
	PosX, PosY   []float64
	CellW, CellH []float64
	Filler       []bool
}

// Compile builds the flat view of d as it stands, without fillers. The
// cells, and which pin sits on which cell and net, must not change for
// the lifetime of the view; everything else a stage boundary can change
// is brought up to date by Sync.
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
		PosX:       make([]float64, len(d.Cells)),
		PosY:       make([]float64, len(d.Cells)),
		CellW:      make([]float64, len(d.Cells)),
		CellH:      make([]float64, len(d.Cells)),
		Filler:     make([]bool, len(d.Cells)),
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

// Sync refreshes everything a stage boundary can change from the structs:
// positions and extents of the design's cells, net weights, and pin
// offsets, which mLG rewrites together with W/H when it turns a macro.
// The fillers are the view's own and keep their entries. One
// O(cells + pins) pass that allocates nothing.
func (cv *Compiled) Sync() {
	d := cv.d
	for i := range d.Cells {
		c := &d.Cells[i]
		cv.PosX[i], cv.PosY[i] = c.X, c.Y
		cv.CellW[i], cv.CellH[i] = c.W, c.H
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

// AddFillers appends count fillers of w x h, centered at the origin,
// after the design's cells and the fillers already in the view, and
// returns the index of the first. An array without room for them grows
// once, to exactly the entries it then holds.
func (cv *Compiled) AddFillers(count int, w, h float64) int {
	first := len(cv.PosX)
	cv.PosX, cv.PosY = extend(cv.PosX, count), extend(cv.PosY, count)
	cv.CellW, cv.CellH = extend(cv.CellW, count), extend(cv.CellH, count)
	cv.Filler, cv.CellNetOff = extend(cv.Filler, count), extend(cv.CellNetOff, count)
	end := cv.CellNetOff[first]
	for ci := first; ci < len(cv.PosX); ci++ {
		cv.PosX[ci], cv.PosY[ci] = 0, 0
		cv.CellW[ci], cv.CellH[ci] = w, h
		cv.Filler[ci] = true
		cv.CellNetOff[ci+1] = end
	}
	return first
}

// extend returns s lengthened by n, copied into one exactly sized array
// when its own has no room.
func extend[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	t := make([]T, len(s)+n)
	copy(t, s)
	return t
}

// DropFillers removes every filler from the view, keeping the capacity.
func (cv *Compiled) DropFillers() {
	n := len(cv.d.Cells)
	cv.PosX, cv.PosY = cv.PosX[:n], cv.PosY[:n]
	cv.CellW, cv.CellH = cv.CellW[:n], cv.CellH[:n]
	cv.Filler = cv.Filler[:n]
	cv.CellNetOff = cv.CellNetOff[:n+1]
}

// FixedOrHeldInto reports, per view entry, whether it stays where it is
// for a stage that holds the cells held: every fixed cell, plus held.
// Such a stage treats them all alike, as fixed charge and obstacles;
// only Fixed is the netlist's, and no filler is still. It writes into
// still (reuse.Resize), which it returns.
func (cv *Compiled) FixedOrHeldInto(still []bool, held []int) []bool {
	still = reuse.Resize(still, len(cv.PosX))
	for i := range still {
		still[i] = i < len(cv.d.Cells) && cv.d.Cells[i].Fixed
	}
	for _, ci := range held {
		still[ci] = true
	}
	return still
}

// PositionsInto copies the view's centers of the entries idx into the
// flat {x1..xn, y1..yn} vector v, 2*len(idx) long.
func (cv *Compiled) PositionsInto(idx []int, v []float64) {
	n := len(idx)
	for k, ci := range idx {
		v[k], v[k+n] = cv.PosX[ci], cv.PosY[ci]
	}
}

// WriteBack is a stage's end: SetPositions, and the same positions
// written to the Cell structs of the design's cells among idx (the
// fillers live in the view alone).
func (cv *Compiled) WriteBack(idx []int, v []float64) {
	cv.SetPositions(idx, v)
	d, n := cv.d, len(idx)
	for k, ci := range idx {
		if ci < len(d.Cells) {
			d.Cells[ci].X, d.Cells[ci].Y = v[k], v[k+n]
		}
	}
}

// SetPositions writes a flat {x_1..x_n, y_1..y_n} solution vector into
// the view's position arrays for the cells in idx — the engine's
// once-per-iteration scatter. Cell structs are left untouched; use
// WriteBack for the final write-back.
func (cv *Compiled) SetPositions(idx []int, v []float64) {
	n := len(idx)
	for k, ci := range idx {
		cv.PosX[ci] = v[k]
		cv.PosY[ci] = v[k+n]
	}
}

// pinPosSlot returns the absolute position of CSR pin slot s from the
// SoA arrays, matching Design.PinPos bit for bit.
func (cv *Compiled) pinPosSlot(s int) (x, y float64) {
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
		x, y := cv.pinPosSlot(s)
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
