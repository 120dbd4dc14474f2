package legalize

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// bigLegalizeDesign builds a design large enough to split into several
// row bands (rows and cell count both above the banding thresholds).
func bigLegalizeDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	// Size the region for ~55% utilization at average width 3.5.
	side := math.Sqrt(float64(n) * 3.5 * 2 / 0.55)
	side = math.Ceil(side/2) * 2
	d := netlist.New("lg-big", geom.Rect{Hx: side, Hy: side})
	BuildRows(d, 2, 1)
	var cells []int
	for i := 0; i < n; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(2 + rng.Intn(4)), H: 2,
			X: 2 + rng.Float64()*(side-4), Y: 2 + rng.Float64()*(side-4),
		}))
	}
	return d, cells
}

// TestCellsWorkersBitwiseIdentical is the banded-legalization half of
// the back-end determinism property: every worker count must produce
// bit-for-bit the same layout and displacement stats. The design is
// big enough (9000 cells, ~340 rows → 4 bands) that the partition is
// real.
func TestCellsWorkersBitwiseIdentical(t *testing.T) {
	var refX, refY []float64
	var refTotal, refMax float64
	for _, w := range []int{1, 2, 7} {
		d, cells := bigLegalizeDesign(9000, 42)
		total, max, err := cellsOn(d, cells, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if err := CheckLegal(d, cells); err != nil {
			t.Fatalf("workers %d: not legal: %v", w, err)
		}
		if w == 1 {
			refTotal, refMax = total, max
			for _, ci := range cells {
				refX = append(refX, d.Cells[ci].X)
				refY = append(refY, d.Cells[ci].Y)
			}
			continue
		}
		if total != refTotal || max != refMax {
			t.Errorf("workers %d: displacement (%v, %v) != serial (%v, %v)",
				w, total, max, refTotal, refMax)
		}
		for k, ci := range cells {
			if d.Cells[ci].X != refX[k] || d.Cells[ci].Y != refY[k] {
				t.Fatalf("workers %d: cell %d at (%v, %v), serial (%v, %v)",
					w, ci, d.Cells[ci].X, d.Cells[ci].Y, refX[k], refY[k])
			}
		}
	}
}

// TestAbacusTrialAllocFree guards the satellite optimization: the
// per-candidate Abacus trial must not copy the cluster slice.
func TestAbacusTrialAllocFree(t *testing.T) {
	s := &seg{lx: 0, hx: 100, top: -1}
	st := &abacus{order: make([]int, 20), clusters: make([]cluster, 20), next: make([]int32, 20)}
	for i := 0; i < 20; i++ {
		st.commit(s, i, float64(i*4), 3)
		s.used += 3
	}
	allocs := testing.AllocsPerRun(100, func() {
		st.trial(s, 37, 3)
	})
	if allocs != 0 {
		t.Errorf("the Abacus trial allocates %v objects per call, want 0", allocs)
	}
}

// TestCellsAllocsIndependentOfCellCount: one Cells call allocates its
// buffers once, at their final sizes, so four times the cells (and twice
// the rows) cost no more mallocs. Measured: 23 at both sizes. A slice
// per cell, per cluster merge or per segment made 1 983 and 6 768.
func TestCellsAllocsIndependentOfCellCount(t *testing.T) {
	mallocs := func(n int) float64 {
		d, cells := bigLegalizeDesign(n, 3)
		cv := d.Compile()
		gpX, gpY := slices.Clone(cv.PosX), slices.Clone(cv.PosY)
		return testing.AllocsPerRun(3, func() {
			copy(cv.PosX, gpX)
			copy(cv.PosY, gpY)
			if _, _, err := Cells(cv, cells, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := mallocs(1000), mallocs(4000)
	if big > small+4 {
		t.Errorf("Cells makes %v mallocs on 1000 cells and %v on 4000, want no growth", small, big)
	}
}

// BenchmarkLegalize measures banded row legalization end to end
// (5000 cells) at 1 worker; the harness restores the global-placement
// positions between runs so every iteration legalizes the same input.
func BenchmarkLegalize(b *testing.B) {
	d, cells := bigLegalizeDesign(5000, 7)
	cv := d.Compile()
	saveX, saveY := slices.Clone(cv.PosX), slices.Clone(cv.PosY)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		copy(cv.PosX, saveX)
		copy(cv.PosY, saveY)
		if _, _, err := Cells(cv, cells, 1); err != nil {
			b.Fatal(err)
		}
	}
}
