// Package netlist defines the placement design model shared by every
// stage of the placer: cells (standard cells, macros and IO pads), nets,
// pins with cell-relative offsets, the placement region and standard-cell
// rows, and the compiled view the stages' kernels read, which alone holds
// the global placements' fillers. Cell positions are stored as centers in
// database units; geometry helpers convert to bounding rectangles.
package netlist

import (
	"fmt"
	"math"

	"eplace/internal/geom"
)

// Kind classifies a cell for placement purposes.
type Kind uint8

const (
	// StdCell is a movable standard cell that must end on a row.
	StdCell Kind = iota
	// Macro is a large block; movable in mixed-size mode, fixed otherwise.
	Macro
	// Pad is a fixed IO terminal.
	Pad
	// Filler names a whitespace filler. No Design holds one: fillers
	// live in a compiled view (Compiled.AddFillers). The benchmark module
	// still names the constant.
	Filler
)

// String names the kind for reports and debugging.
func (k Kind) String() string {
	switch k {
	case StdCell:
		return "stdcell"
	case Macro:
		return "macro"
	case Pad:
		return "pad"
	case Filler:
		return "filler"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cell is one placeable object. X, Y is the cell center.
type Cell struct {
	Name  string
	W, H  float64
	X, Y  float64
	Kind  Kind
	Fixed bool
	// Pins indexes into Design.Pins.
	Pins []int
}

// Area returns the cell area, which is also its electric quantity q_i.
func (c *Cell) Area() float64 { return c.W * c.H }

// Rect returns the cell bounding box at its current position.
func (c *Cell) Rect() geom.Rect {
	return geom.NewRectCenter(c.X, c.Y, c.W, c.H)
}

// Dir is a pin's signal direction (Bookshelf .nets files carry it).
type Dir uint8

const (
	// DirUnknown marks pins without direction information.
	DirUnknown Dir = iota
	// DirIn is a signal sink.
	DirIn
	// DirOut is a signal driver.
	DirOut
)

// Pin connects a cell to a net at an offset from the cell center.
type Pin struct {
	Cell int // index into Design.Cells, -1 for a floating terminal
	Net  int // index into Design.Nets
	// Ox, Oy is the pin offset from the owning cell's center.
	Ox, Oy float64
	// Dir is the signal direction when known.
	Dir Dir
}

// Net is a hyperedge over pins.
type Net struct {
	Name   string
	Weight float64
	// Pins indexes into Design.Pins.
	Pins []int
}

// EffWeight returns the net's effective weight: unweighted nets
// (Weight == 0, e.g. Bookshelf benchmarks without a .wts entry) count
// as 1. Every consumer of net weights — the HPWL metric, the smooth
// wirelength models, the quadratic net model — must use this instead of
// coercing Weight locally, so metric and gradient can never drift.
func (n *Net) EffWeight() float64 {
	if n.Weight == 0 {
		return 1
	}
	return n.Weight
}

// Row is a standard-cell row for legalization.
type Row struct {
	Y      float64 // bottom of the row
	Height float64
	Lx, Hx float64 // usable extent
	SiteW  float64 // site width (x snap grid)
}

// Design is a complete placement instance G = (V, E, R).
type Design struct {
	Name  string
	Cells []Cell
	Nets  []Net
	Pins  []Pin
	// Region is the placement region R.
	Region geom.Rect
	// Rows are standard-cell rows; empty for purely analytic flows.
	Rows []Row
	// TargetDensity is the benchmark density upper bound rho_t in (0, 1].
	TargetDensity float64

	nameToCell map[string]int
}

// New returns an empty design over the given region with target density 1.
func New(name string, region geom.Rect) *Design {
	return &Design{
		Name:          name,
		Region:        region,
		TargetDensity: 1.0,
		nameToCell:    make(map[string]int),
	}
}

// Reserve grows the cell, net and pin slices to the given capacities
// ahead of bulk construction (the synthetic generator and the
// multilevel coarsener know their counts up front), so building a
// million-cell design does not pay for repeated append re-copies.
func (d *Design) Reserve(cells, nets, pins int) {
	if cap(d.Cells)-len(d.Cells) < cells {
		grown := make([]Cell, len(d.Cells), len(d.Cells)+cells)
		copy(grown, d.Cells)
		d.Cells = grown
	}
	if cap(d.Nets)-len(d.Nets) < nets {
		grown := make([]Net, len(d.Nets), len(d.Nets)+nets)
		copy(grown, d.Nets)
		d.Nets = grown
	}
	if cap(d.Pins)-len(d.Pins) < pins {
		grown := make([]Pin, len(d.Pins), len(d.Pins)+pins)
		copy(grown, d.Pins)
		d.Pins = grown
	}
}

// AddCell appends a cell and returns its index.
func (d *Design) AddCell(c Cell) int {
	idx := len(d.Cells)
	d.Cells = append(d.Cells, c)
	if d.nameToCell == nil {
		d.nameToCell = make(map[string]int)
	}
	if c.Name != "" {
		d.nameToCell[c.Name] = idx
	}
	return idx
}

// CellByName returns the index of the named cell, or -1.
func (d *Design) CellByName(name string) int {
	if i, ok := d.nameToCell[name]; ok {
		return i
	}
	return -1
}

// AddNet appends an empty net and returns its index.
func (d *Design) AddNet(name string, weight float64) int {
	d.Nets = append(d.Nets, Net{Name: name, Weight: weight})
	return len(d.Nets) - 1
}

// Connect attaches a pin on cell ci to net ni with offset (ox, oy) from
// the cell center, and returns the pin index.
func (d *Design) Connect(ci, ni int, ox, oy float64) int {
	pi := len(d.Pins)
	d.Pins = append(d.Pins, Pin{Cell: ci, Net: ni, Ox: ox, Oy: oy})
	d.Nets[ni].Pins = append(d.Nets[ni].Pins, pi)
	if ci >= 0 {
		d.Cells[ci].Pins = append(d.Cells[ci].Pins, pi)
	}
	return pi
}

// PinPos returns the absolute position of pin pi.
func (d *Design) PinPos(pi int) geom.Point {
	p := &d.Pins[pi]
	if p.Cell < 0 {
		return geom.Point{X: p.Ox, Y: p.Oy}
	}
	c := &d.Cells[p.Cell]
	return geom.Point{X: c.X + p.Ox, Y: c.Y + p.Oy}
}

// netHPWL returns the half-perimeter wirelength of net ni (weighted).
func (d *Design) netHPWL(ni int) float64 {
	n := &d.Nets[ni]
	if len(n.Pins) < 2 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, pi := range n.Pins {
		p := d.PinPos(pi)
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return n.EffWeight() * ((maxX - minX) + (maxY - minY))
}

// HPWL returns the total weighted half-perimeter wirelength (Eq. 1).
func (d *Design) HPWL() float64 {
	total := 0.0
	for ni := range d.Nets {
		total += d.netHPWL(ni)
	}
	return total
}

// Movable returns indices of all cells free to move.
func (d *Design) Movable() []int {
	out := make([]int, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			out = append(out, i)
		}
	}
	return out
}

// MovableOf returns indices of free cells of the given kind.
func (d *Design) MovableOf(kind Kind) []int {
	var out []int
	for i := range d.Cells {
		if !d.Cells[i].Fixed && d.Cells[i].Kind == kind {
			out = append(out, i)
		}
	}
	return out
}

// MovableArea returns the total area of movable cells.
func (d *Design) MovableArea() float64 {
	a := 0.0
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed {
			a += c.Area()
		}
	}
	return a
}

// StdCellHeight returns the dominant movable standard-cell height, or 0
// when the design has no movable standard cell. Ties break toward the
// smaller height so the choice never depends on map iteration order
// (rows built at this height feed the final placement).
func (d *Design) StdCellHeight() float64 {
	counts := map[float64]int{}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed && c.Kind == StdCell {
			counts[c.H]++
		}
	}
	bestH, bestN := 0.0, 0
	for h, n := range counts {
		if n > bestN || (n == bestN && h < bestH) {
			bestH, bestN = h, n
		}
	}
	return bestH
}

// fixedAreaInRegion returns the area of fixed cells clipped to the region.
func (d *Design) fixedAreaInRegion() float64 {
	a := 0.0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			a += c.Rect().Intersect(d.Region).Area()
		}
	}
	return a
}

// utilization returns movable area / (region area - fixed area).
func (d *Design) utilization() float64 {
	free := d.Region.Area() - d.fixedAreaInRegion()
	if free <= 0 {
		return math.Inf(1)
	}
	return d.MovableArea() / free
}

// Positions copies the centers of the given cells into a flat
// {x1..xn, y1..yn} vector, the optimizer's solution layout v. It
// allocates the vector; a compiled view's PositionsInto fills one the
// caller owns.
func (d *Design) Positions(idx []int) []float64 {
	v := make([]float64, 2*len(idx))
	for k, ci := range idx {
		v[k] = d.Cells[ci].X
		v[k+len(idx)] = d.Cells[ci].Y
	}
	return v
}

// SetPositions writes a flat {x, y} vector back to the given cells.
func (d *Design) SetPositions(idx []int, v []float64) {
	n := len(idx)
	for k, ci := range idx {
		d.Cells[ci].X = v[k]
		d.Cells[ci].Y = v[k+n]
	}
}

// TotalOverlap returns the summed pairwise overlap area over the given
// cells (the O metric of Figures 2, 3 and 6). Rectangles are hashed
// into a uniform grid with cell-sized bins and pairs are examined only
// within shared bins (each pair counted once, in the bin holding its
// intersection's low corner), so the cost is O(n + overlapping pairs)
// instead of the x-sweep's O(n^2) on dense or collapsed layouts —
// essential for reporting on 100K+ cell designs. Intended for
// reporting, not inner loops.
func (d *Design) TotalOverlap(idx []int) float64 {
	n := len(idx)
	if n < 2 {
		return 0
	}
	rects := make([]geom.Rect, n)
	lx, ly := math.Inf(1), math.Inf(1)
	hx, hy := math.Inf(-1), math.Inf(-1)
	var sw, sh float64
	for k, ci := range idx {
		r := d.Cells[ci].Rect()
		rects[k] = r
		lx, ly = math.Min(lx, r.Lx), math.Min(ly, r.Ly)
		hx, hy = math.Max(hx, r.Hx), math.Max(hy, r.Hy)
		sw += r.Hx - r.Lx
		sh += r.Hy - r.Ly
	}
	// Average-extent bins keep per-bin occupancy O(1) on spread
	// layouts; the floor bounds the grid at 1024x1024 so huge designs
	// with tiny cells stay in memory.
	binW := math.Max(sw/float64(n), (hx-lx)/1024)
	binH := math.Max(sh/float64(n), (hy-ly)/1024)
	if binW <= 0 || binH <= 0 {
		binW, binH = 1, 1
	}
	mx := int((hx-lx)/binW) + 1
	my := int((hy-ly)/binH) + 1
	clampBin := func(b, m int) int {
		if b < 0 {
			return 0
		}
		if b >= m {
			return m - 1
		}
		return b
	}
	buckets := make([][]int32, mx*my)
	for k := range rects {
		r := &rects[k]
		bx0 := clampBin(int((r.Lx-lx)/binW), mx)
		bx1 := clampBin(int((r.Hx-lx)/binW), mx)
		by0 := clampBin(int((r.Ly-ly)/binH), my)
		by1 := clampBin(int((r.Hy-ly)/binH), my)
		for by := by0; by <= by1; by++ {
			for bx := bx0; bx <= bx1; bx++ {
				b := by*mx + bx
				buckets[b] = append(buckets[b], int32(k))
			}
		}
	}
	total := 0.0
	for b, mem := range buckets {
		for i := 0; i < len(mem); i++ {
			ri := &rects[mem[i]]
			for j := i + 1; j < len(mem); j++ {
				rj := &rects[mem[j]]
				ix := math.Max(ri.Lx, rj.Lx)
				iy := math.Max(ri.Ly, rj.Ly)
				w := math.Min(ri.Hx, rj.Hx) - ix
				h := math.Min(ri.Hy, rj.Hy) - iy
				if w <= 0 || h <= 0 {
					continue
				}
				// Count the pair only in the bin that owns the
				// intersection's low corner.
				if clampBin(int((iy-ly)/binH), my)*mx+clampBin(int((ix-lx)/binW), mx) != b {
					continue
				}
				total += w * h
			}
		}
	}
	return total
}

// Stats summarizes a design for reports.
type Stats struct {
	Cells, StdCells, Macros, Pads      int
	MovableMacros                      int
	Nets, Pins                         int
	MovableArea, FixedArea, RegionArea float64
	Utilization                        float64
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{
		Nets:        len(d.Nets),
		Pins:        len(d.Pins),
		Cells:       len(d.Cells),
		MovableArea: d.MovableArea(),
		FixedArea:   d.fixedAreaInRegion(),
		RegionArea:  d.Region.Area(),
	}
	for i := range d.Cells {
		switch d.Cells[i].Kind {
		case StdCell:
			s.StdCells++
		case Macro:
			s.Macros++
			if !d.Cells[i].Fixed {
				s.MovableMacros++
			}
		case Pad:
			s.Pads++
		}
	}
	s.Utilization = d.utilization()
	return s
}

// String formats the summary on one line.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d (std=%d macro=%d[mov %d] pad=%d) nets=%d pins=%d util=%.3f",
		s.Cells, s.StdCells, s.Macros, s.MovableMacros, s.Pads, s.Nets, s.Pins, s.Utilization)
}

// Clone deep-copies the design (cells, nets, pins, rows).
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:          d.Name,
		Region:        d.Region,
		TargetDensity: d.TargetDensity,
		Cells:         make([]Cell, len(d.Cells)),
		Nets:          make([]Net, len(d.Nets)),
		Pins:          make([]Pin, len(d.Pins)),
		Rows:          append([]Row(nil), d.Rows...),
		nameToCell:    make(map[string]int, len(d.nameToCell)),
	}
	copy(nd.Pins, d.Pins)
	for i := range d.Cells {
		nd.Cells[i] = d.Cells[i]
		nd.Cells[i].Pins = append([]int(nil), d.Cells[i].Pins...)
		if nd.Cells[i].Name != "" {
			nd.nameToCell[nd.Cells[i].Name] = i
		}
	}
	for i := range d.Nets {
		nd.Nets[i] = d.Nets[i]
		nd.Nets[i].Pins = append([]int(nil), d.Nets[i].Pins...)
	}
	return nd
}

// Validate performs structural consistency checks and returns the first
// problem found, or nil: a broken cross-reference, a non-finite number,
// or a movable cell that does not fit the region.
func (d *Design) Validate() error {
	if !d.Region.Valid() || d.Region.Empty() {
		return fmt.Errorf("netlist: invalid region %v", d.Region)
	}
	if d.TargetDensity <= 0 || d.TargetDensity > 1 {
		return fmt.Errorf("netlist: target density %v out of (0,1]", d.TargetDensity)
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !finite(c.W, c.H, c.X, c.Y) {
			return fmt.Errorf("netlist: cell %d (%s) has non-finite size %vx%v or position (%v, %v)", i, c.Name, c.W, c.H, c.X, c.Y)
		}
		if c.W < 0 || c.H < 0 {
			return fmt.Errorf("netlist: cell %d (%s) negative size", i, c.Name)
		}
		if !c.Fixed && (c.W > d.Region.W() || c.H > d.Region.H()) {
			return fmt.Errorf("netlist: movable cell %d (%s) of %vx%v does not fit the %vx%v region", i, c.Name, c.W, c.H, d.Region.W(), d.Region.H())
		}
		for _, pi := range c.Pins {
			if pi < 0 || pi >= len(d.Pins) {
				return fmt.Errorf("netlist: cell %d pin index %d out of range", i, pi)
			}
			if d.Pins[pi].Cell != i {
				return fmt.Errorf("netlist: cell %d pin %d back-reference mismatch", i, pi)
			}
		}
	}
	for ni := range d.Nets {
		if !finite(d.Nets[ni].Weight) {
			return fmt.Errorf("netlist: net %d (%s) has non-finite weight %v", ni, d.Nets[ni].Name, d.Nets[ni].Weight)
		}
		for _, pi := range d.Nets[ni].Pins {
			if pi < 0 || pi >= len(d.Pins) {
				return fmt.Errorf("netlist: net %d pin index %d out of range", ni, pi)
			}
			if d.Pins[pi].Net != ni {
				return fmt.Errorf("netlist: net %d pin %d back-reference mismatch", ni, pi)
			}
		}
	}
	for pi := range d.Pins {
		p := &d.Pins[pi]
		if p.Net < 0 || p.Net >= len(d.Nets) {
			return fmt.Errorf("netlist: pin %d net index out of range", pi)
		}
		if p.Cell >= len(d.Cells) {
			return fmt.Errorf("netlist: pin %d cell index out of range", pi)
		}
		if !finite(p.Ox, p.Oy) {
			return fmt.Errorf("netlist: pin %d (cell %d, net %d) has non-finite offset (%v, %v)", pi, p.Cell, p.Net, p.Ox, p.Oy)
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
