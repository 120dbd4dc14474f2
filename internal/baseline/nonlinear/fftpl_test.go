package nonlinear

import (
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
)

func TestFFTPLSpreads(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "f", NumCells: 400, NumFixedMacros: 3})
	cells := len(d.Cells)
	res, err := PlaceFFTPL(d, d.Movable(), Options{GridM: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != cells {
		t.Fatalf("%d cells after FFTPL, want %d: fillers left behind", len(d.Cells), cells)
	}
	if res.Overflow > 0.10 {
		t.Errorf("FFTPL overflow = %v, want <= 0.10", res.Overflow)
	}
	if res.CostEvals < res.GradEvals {
		t.Errorf("cost evals %d below grad evals %d: line search suspiciously cheap", res.CostEvals, res.GradEvals)
	}
	if got := d.HPWL(); res.HPWL != got {
		t.Errorf("reported HPWL %v, design has %v", res.HPWL, got)
	}
	for _, ci := range d.Movable() {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
			t.Fatalf("cell %d escaped region", ci)
		}
	}
}

// FFTPL runs the parallel eDensity and WA kernels; like the ePlace flow,
// its layout must not depend on the worker count.
func TestFFTPLWorkersBitwiseIdentical(t *testing.T) {
	spec := synth.Spec{Name: "fw", NumCells: 300, NumMovableMacros: 2}
	var ref *netlist.Design
	var refRes Result
	for _, workers := range []int{1, 2, 7} {
		d := synth.Generate(spec)
		res, err := PlaceFFTPL(d, d.Movable(), Options{GridM: 32, MaxOuter: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refRes = d, res
			continue
		}
		if res != refRes {
			t.Errorf("workers=%d: result %+v, workers=1 gave %+v", workers, res, refRes)
		}
		for i := range d.Cells {
			if d.Cells[i].X != ref.Cells[i].X || d.Cells[i].Y != ref.Cells[i].Y {
				t.Fatalf("workers=%d: cell %d at (%v, %v), workers=1 put it at (%v, %v)",
					workers, i, d.Cells[i].X, d.Cells[i].Y, ref.Cells[i].X, ref.Cells[i].Y)
			}
		}
	}
}
