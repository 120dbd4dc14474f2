package quadratic

import (
	"math"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/synth"
)

func TestLookAheadLegalizeFlattensBlob(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "lal", NumCells: 800, NumFixedMacros: 4})
	idx := d.Movable()
	qp.Place(d, idx)
	if tau := overflowOf(d, idx, 64); tau < 0.8 {
		t.Fatalf("setup: mIP blob tau = %v, want high", tau)
	}
	anchors := make([]geom.Point, len(idx))
	lookAheadLegalize(d, idx, 64, anchors)
	// Move cells to the anchors and measure.
	v := make([]float64, 2*len(idx))
	for k := range idx {
		v[k], v[k+len(idx)] = anchors[k].X, anchors[k].Y
	}
	d.SetPositions(idx, v)
	if tau := overflowOf(d, idx, 64); tau > 0.2 {
		t.Errorf("LAL tau = %v, want <= 0.2", tau)
	}
	for _, ci := range idx {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
			t.Fatalf("cell %d escaped region", ci)
		}
	}
}

func TestLookAheadLegalizeKeepsSatisfiedCells(t *testing.T) {
	// A layout that is already spread: LAL must barely move anything.
	d := netlist.New("sat", geom.Rect{Hx: 64, Hy: 64})
	var idx []int
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			idx = append(idx, d.AddCell(netlist.Cell{
				W: 4, H: 4, X: 4 + 8*float64(i), Y: 4 + 8*float64(j),
			}))
		}
	}
	anchors := make([]geom.Point, len(idx))
	lookAheadLegalize(d, idx, 32, anchors)
	for k, ci := range idx {
		c := &d.Cells[ci]
		if math.Hypot(anchors[k].X-c.X, anchors[k].Y-c.Y) > 1e-9 {
			t.Fatalf("cell %d moved by LAL in a satisfied layout: %v vs (%v,%v)",
				ci, anchors[k], c.X, c.Y)
		}
	}
}

func TestLowerUpperBoundsApproach(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "bounds", NumCells: 600, NumFixedMacros: 4})
	idx := d.Movable()
	res := Place(d, idx, Options{})
	if res.Overflow > 0.2 {
		t.Errorf("final overflow = %v", res.Overflow)
	}
	// The output must beat the pure-LAL layout on wirelength: the whole
	// point of the lower-bound solves.
	d2 := synth.Generate(synth.Spec{Name: "bounds", NumCells: 600, NumFixedMacros: 4})
	idx2 := d2.Movable()
	qp.Place(d2, idx2)
	anchors := make([]geom.Point, len(idx2))
	lookAheadLegalize(d2, idx2, 64, anchors)
	v := make([]float64, 2*len(idx2))
	for k := range idx2 {
		v[k], v[k+len(idx2)] = anchors[k].X, anchors[k].Y
	}
	d2.SetPositions(idx2, v)
	if res.HPWL >= d2.HPWL() {
		t.Errorf("SimPL iteration HPWL %v not below one-shot LAL %v", res.HPWL, d2.HPWL())
	}
}

func TestFreeCapSubtractsFixed(t *testing.T) {
	d := netlist.New("cap", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell(netlist.Cell{W: 4, H: 5, X: 2, Y: 2.5, Fixed: true})
	got := freeCap(d, geom.Rect{Hx: 10, Hy: 10})
	if math.Abs(got-80) > 1e-9 {
		t.Errorf("freeCap = %v, want 80", got)
	}
	// Clipped overlap only.
	got = freeCap(d, geom.Rect{Lx: 0, Ly: 0, Hx: 2, Hy: 10})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("clipped freeCap = %v, want 10", got)
	}
}
