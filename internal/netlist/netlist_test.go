package netlist

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"eplace/internal/geom"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// buildTiny returns a 3-cell, 2-net design used by several tests.
//
//	c0 at (0,0) 2x2, c1 at (10,0) 2x2, pad at (20,5) fixed.
//	n0 = {c0, c1}, n1 = {c1, pad} with weight 2.
func buildTiny() *Design {
	d := New("tiny", geom.Rect{Lx: -5, Ly: -5, Hx: 30, Hy: 15})
	c0 := d.AddCell(Cell{Name: "c0", W: 2, H: 2, X: 0, Y: 0})
	c1 := d.AddCell(Cell{Name: "c1", W: 2, H: 2, X: 10, Y: 0})
	p := d.AddCell(Cell{Name: "io", W: 1, H: 1, X: 20, Y: 5, Kind: Pad, Fixed: true})
	n0 := d.AddNet("n0", 1)
	n1 := d.AddNet("n1", 2)
	d.Connect(c0, n0, 0, 0)
	d.Connect(c1, n0, 0, 0)
	d.Connect(c1, n1, 0.5, 0)
	d.Connect(p, n1, 0, 0)
	return d
}

func TestHPWL(t *testing.T) {
	d := buildTiny()
	// n0: |10-0| + 0 = 10 (weight 1); n1: |20-10.5| + |5-0| = 14.5 (weight 2).
	want := 10.0 + 2*14.5
	if got := d.HPWL(); !almostEq(got, want) {
		t.Errorf("HPWL = %v, want %v", got, want)
	}
	if got := d.NetHPWL(0); !almostEq(got, 10) {
		t.Errorf("NetHPWL(0) = %v", got)
	}
}

func TestHPWLSinglePinNet(t *testing.T) {
	d := New("x", geom.Rect{Hx: 10, Hy: 10})
	c := d.AddCell(Cell{W: 1, H: 1, X: 5, Y: 5})
	n := d.AddNet("single", 1)
	d.Connect(c, n, 0, 0)
	if got := d.NetHPWL(n); got != 0 {
		t.Errorf("single-pin net HPWL = %v, want 0", got)
	}
}

func TestPinPosOffsets(t *testing.T) {
	d := buildTiny()
	// Pin 2 is on c1 with offset (0.5, 0).
	got := d.PinPos(2)
	if !almostEq(got.X, 10.5) || !almostEq(got.Y, 0) {
		t.Errorf("PinPos = %v", got)
	}
	// Moving the cell moves the pin.
	d.Cells[1].X = 0
	got = d.PinPos(2)
	if !almostEq(got.X, 0.5) {
		t.Errorf("PinPos after move = %v", got)
	}
}

func TestMovablePartitions(t *testing.T) {
	d := buildTiny()
	mov := d.Movable()
	if len(mov) != 2 {
		t.Fatalf("Movable = %v", mov)
	}
	cv := d.Compile()
	if still := cv.FixedOrHeldInto(nil, nil); !slices.Equal(still, []bool{false, false, true}) {
		t.Errorf("FixedOrHeldInto(nil, nil) = %v", still)
	}
	cv.AddFillers(1, 1, 1)
	if still := cv.FixedOrHeldInto(nil, mov[:1]); !slices.Equal(still, []bool{true, false, true, false}) {
		t.Errorf("FixedOrHeldInto(nil, %v) with a filler = %v", mov[:1], still)
	}
	if got := d.MovableArea(); !almostEq(got, 8) {
		t.Errorf("MovableArea = %v", got)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	d := buildTiny()
	idx := d.Movable()
	v := d.Positions(idx)
	if len(v) != 4 {
		t.Fatalf("Positions len = %d", len(v))
	}
	v[0], v[2] = 3, 7 // c0 -> (3, 7)
	d.SetPositions(idx, v)
	if d.Cells[0].X != 3 || d.Cells[0].Y != 7 {
		t.Errorf("SetPositions: c0 = (%v, %v)", d.Cells[0].X, d.Cells[0].Y)
	}
	v2 := d.Positions(idx)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, v[i], v2[i])
		}
	}
}

func TestTotalOverlap(t *testing.T) {
	d := New("ovl", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell(Cell{W: 4, H: 4, X: 0, Y: 0})
	b := d.AddCell(Cell{W: 4, H: 4, X: 2, Y: 0}) // overlaps a by 2x4 = 8
	c := d.AddCell(Cell{W: 4, H: 4, X: 50, Y: 50})
	got := d.TotalOverlap([]int{a, b, c})
	if !almostEq(got, 8) {
		t.Errorf("TotalOverlap = %v, want 8", got)
	}
	// Identical stacked cells: full overlap.
	d.Cells[b].X = 0
	if got := d.TotalOverlap([]int{a, b}); !almostEq(got, 16) {
		t.Errorf("stacked TotalOverlap = %v, want 16", got)
	}
}

func TestTotalOverlapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := New("rand", geom.Rect{Hx: 50, Hy: 50})
	var idx []int
	for i := 0; i < 60; i++ {
		idx = append(idx, d.AddCell(Cell{
			W: 1 + rng.Float64()*5, H: 1 + rng.Float64()*5,
			X: rng.Float64() * 50, Y: rng.Float64() * 50,
		}))
	}
	brute := 0.0
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			brute += d.Cells[idx[i]].Rect().Overlap(d.Cells[idx[j]].Rect())
		}
	}
	if got := d.TotalOverlap(idx); !almostEq(got, brute) {
		t.Errorf("TotalOverlap = %v, brute force = %v", got, brute)
	}
}

func TestUtilization(t *testing.T) {
	d := New("u", geom.Rect{Hx: 10, Hy: 10}) // area 100
	d.AddCell(Cell{W: 5, H: 2, X: 5, Y: 5})  // movable 10
	d.AddCell(Cell{W: 4, H: 5, X: 2, Y: 2.5, Kind: Macro, Fixed: true})
	// fixed rect [0,0,4,5] fully inside: 20; free = 80; util = 10/80.
	if got := d.utilization(); !almostEq(got, 0.125) {
		t.Errorf("Utilization = %v", got)
	}
}

func TestFixedAreaClipping(t *testing.T) {
	d := New("clip", geom.Rect{Hx: 10, Hy: 10})
	// Fixed pad half outside the region.
	d.AddCell(Cell{W: 4, H: 4, X: 0, Y: 5, Kind: Pad, Fixed: true})
	if got := d.fixedAreaInRegion(); !almostEq(got, 8) {
		t.Errorf("fixedAreaInRegion = %v, want 8", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := buildTiny()
	c := d.Clone()
	c.Cells[0].X = 99
	c.Nets[0].Pins[0] = 3
	if d.Cells[0].X == 99 {
		t.Error("clone shares cell storage")
	}
	if d.Nets[0].Pins[0] == 3 {
		t.Error("clone shares net pin storage")
	}
	if c.CellByName("c1") != 1 {
		t.Error("clone lost name index")
	}
}

// TestDropFillers: fillers live in the view, after the design's cells,
// and dropping them leaves the view of the design alone while the
// design never held one.
func TestDropFillers(t *testing.T) {
	d := buildTiny()
	cv := d.Compile()
	if first := cv.AddFillers(2, 1, 1); first != 3 || len(cv.PosX) != 5 || len(d.Cells) != 3 {
		t.Fatalf("fillers at %d: view holds %d entries, design %d cells", first, len(cv.PosX), len(d.Cells))
	}
	cv.DropFillers()
	if len(cv.PosX) != 3 || len(cv.CellW) != 3 || len(cv.Filler) != 3 || len(cv.CellNetOff) != 4 {
		t.Errorf("DropFillers left %d entries", len(cv.PosX))
	}
	for i, f := range cv.Filler {
		if f {
			t.Errorf("entry %d is still a filler", i)
		}
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate after DropFillers: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildTiny()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
	d.Pins[0].Net = 99
	if err := d.Validate(); err == nil {
		t.Error("Validate missed out-of-range net index")
	}
	d = buildTiny()
	d.Cells[0].W = -1
	if err := d.Validate(); err == nil {
		t.Error("Validate missed negative width")
	}
	d = New("bad", geom.Rect{Hx: 1, Hy: 1})
	d.TargetDensity = 1.5
	if err := d.Validate(); err == nil {
		t.Error("Validate missed bad target density")
	}
}

// Input no placement can finish from fails Validate with an error that
// names the offending cell, net or pin.
func TestValidateRejectsUnplaceable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(d *Design)
		want   string
	}{
		{"nan cell width", func(d *Design) { d.Cells[0].W = nan }, "cell 0 (c0)"},
		{"inf cell height", func(d *Design) { d.Cells[1].H = inf }, "cell 1 (c1)"},
		{"nan movable position", func(d *Design) { d.Cells[0].X = nan }, "cell 0 (c0)"},
		{"nan fixed position", func(d *Design) { d.Cells[2].Y = nan }, "cell 2 (io)"},
		{"nan net weight", func(d *Design) { d.Nets[1].Weight = nan }, "net 1 (n1)"},
		{"inf pin offset", func(d *Design) { d.Pins[2].Ox = inf }, "pin 2"},
		{"-inf pin offset", func(d *Design) { d.Pins[3].Oy = -inf }, "pin 3"},
		{"movable macro wider than region", func(d *Design) {
			d.AddCell(Cell{Name: "big", W: 1.5 * d.Region.W(), H: 2, Kind: Macro})
		}, "cell 3 (big)"},
		{"movable cell taller than region", func(d *Design) { d.Cells[1].H = d.Region.H() + 1 }, "cell 1 (c1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := buildTiny()
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("Validate accepted the design")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// A fixed block may exceed the region; only movable cells must fit.
	d := buildTiny()
	d.AddCell(Cell{Name: "wall", W: 2 * d.Region.W(), H: 1, Kind: Macro, Fixed: true})
	if err := d.Validate(); err != nil {
		t.Errorf("oversized fixed block rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	d := buildTiny()
	d.AddCell(Cell{W: 10, H: 10, X: 15, Y: 7, Kind: Macro})
	s := d.Stats()
	if s.StdCells != 2 || s.Macros != 1 || s.MovableMacros != 1 || s.Pads != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Nets != 2 || s.Pins != 4 {
		t.Errorf("Stats nets/pins = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestCellByName(t *testing.T) {
	d := buildTiny()
	if d.CellByName("c1") != 1 {
		t.Error("CellByName c1")
	}
	if d.CellByName("nope") != -1 {
		t.Error("CellByName missing should be -1")
	}
}

func TestHPWLTranslationInvariance(t *testing.T) {
	d := buildTiny()
	before := d.HPWL()
	for i := range d.Cells {
		d.Cells[i].X += 13.5
		d.Cells[i].Y -= 2.25
	}
	if got := d.HPWL(); !almostEq(got, before) {
		t.Errorf("HPWL changed under translation: %v vs %v", got, before)
	}
}

// StdCellHeight votes among movable standard cells only, breaks a tie
// toward the smaller height, and reports 0 when no cell may vote.
func TestStdCellHeightInference(t *testing.T) {
	region := geom.Rect{Hx: 100, Hy: 100}
	for _, tc := range []struct {
		name  string
		cells []Cell
		want  float64
	}{
		{"dominant", []Cell{
			{W: 1, H: 3}, {W: 1, H: 3}, {W: 1, H: 3}, {W: 1, H: 6},
			{W: 1, H: 9, Fixed: true}, {W: 1, H: 9, Fixed: true},
			{W: 1, H: 9, Fixed: true}, {W: 1, H: 9, Fixed: true},
			{W: 10, H: 20, Kind: Macro}, {W: 10, H: 20, Kind: Macro},
			{W: 1, H: 1, Kind: Filler}, {W: 1, H: 1, Kind: Filler},
			{W: 1, H: 1, Kind: Filler}, {W: 1, H: 1, Kind: Filler},
		}, 3},
		{"tie", []Cell{{W: 1, H: 4}, {W: 1, H: 2}, {W: 1, H: 4}, {W: 1, H: 2}}, 2},
		{"no standard cells", []Cell{
			{W: 10, H: 20, Kind: Macro},
			{W: 1, H: 3, Fixed: true},
			{W: 1, H: 1, Kind: Pad, Fixed: true},
		}, 0},
	} {
		d := New(tc.name, region)
		for _, c := range tc.cells {
			d.AddCell(c)
		}
		if h := d.StdCellHeight(); h != tc.want {
			t.Errorf("%s: StdCellHeight = %v, want %v", tc.name, h, tc.want)
		}
	}
}
