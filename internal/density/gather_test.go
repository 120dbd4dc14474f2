package density

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// edgeDesign is built to reach every branch of the footprint code: cells
// whose smoothed footprint is clamped at each region edge and corner, a
// macro spanning more than three bins, a zero-area cell, fillers, and a
// random crowd so the field is not trivial.
func edgeDesign(region geom.Rect) (*netlist.Design, []int) {
	d := netlist.New("edges", region)
	var idx []int
	add := func(c netlist.Cell) {
		c.X += region.Lx
		c.Y += region.Ly
		idx = append(idx, d.AddCell(c))
	}
	w, h := region.W(), region.H()
	add(netlist.Cell{W: 1, H: 1, X: 0.6, Y: 30})          // left edge
	add(netlist.Cell{W: 1, H: 1, X: w - 0.6, Y: 20})      // right edge
	add(netlist.Cell{W: 1, H: 1, X: 25, Y: 0.55})         // bottom edge
	add(netlist.Cell{W: 1, H: 1, X: 41, Y: h - 0.5})      // top edge
	add(netlist.Cell{W: 1.5, H: 1, X: 0.75, Y: 0.5})      // corner
	add(netlist.Cell{W: 1, H: 1.5, X: w - 0.5, Y: h - 1}) // opposite corner
	add(netlist.Cell{W: 9, H: 11, X: 20.3, Y: 40.9, Kind: netlist.Macro})
	add(netlist.Cell{W: 0, H: 2, X: 33, Y: 33}) // zero area: staged as skipped
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		c := netlist.Cell{
			W: 1 + rng.Float64()*3, H: 2,
			X: 2 + rng.Float64()*(w-4), Y: 2 + rng.Float64()*(h-4),
		}
		if i%4 == 0 {
			c.Kind = netlist.Filler
		}
		add(c)
	}
	return d, idx
}

// TestGatherMatchesPointerOracle: the force gathered over the staged
// footprints is bit for bit the force the pointer-based oracle integrates
// over footprints it rebuilds from the Cell structs, at every worker
// count, on a region whose origin is 0 (where the two clamps are the same
// arithmetic).
func TestGatherMatchesPointerOracle(t *testing.T) {
	d, idx := edgeDesign(geom.Rect{Hx: 64, Hy: 64})
	want := make([]float64, 2*len(idx))
	grad := make([]float64, 2*len(idx))
	for _, workers := range []int{1, 2, 7} {
		md := mustModel(t, d, 32, workers)
		md.Refresh(idx)
		serialGradient(md, idx, want)
		md.Gradient(idx, grad)
		nonzero := 0
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: grad[%d] = %x, oracle %x", workers, i,
					math.Float64bits(grad[i]), math.Float64bits(want[i]))
			}
			if grad[i] != 0 {
				nonzero++
			}
		}
		if nonzero < len(grad)-2 { // only the zero-area cell feels no force
			t.Fatalf("workers=%d: %d of %d gradient entries are zero", workers, len(grad)-nonzero, len(grad))
		}
	}
}

// TestGatherOnShiftedRegion: off the origin the two clamps are different
// arithmetic. The rasterizer stages a footprint clamped at the low edge
// as r.Lx + (region.Lx - r.Lx); the oracle assigns region.Lx. With the
// origin at 0.1 the staged edge of these cells rounds to just below 0.1
// and bin 0's max(Lx, bin edge) absorbs it; at 0.3 it rounds to
// 0.30000000000000004, an ulp inside the region. The gather integrates
// what was rasterized, so it may differ from the oracle there in the last
// bits. The contract is agreement to 1e-12 of the gradient scale; the
// log line reports how many entries actually differ (none here: an ulp of
// the edge is far below an ulp of a bin-sized overlap).
func TestGatherOnShiftedRegion(t *testing.T) {
	for _, origin := range []float64{0.1, 0.3} {
		d, idx := edgeDesign(geom.Rect{Lx: origin, Ly: origin, Hx: 64 + origin, Hy: 64 + origin})
		md := mustModel(t, d, 32, 2)
		md.Refresh(idx)
		want := make([]float64, 2*len(idx))
		serialGradient(md, idx, want)
		grad := make([]float64, 2*len(idx))
		md.Gradient(idx, grad)
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		lastBit := 0
		for i := range grad {
			if math.Abs(grad[i]-want[i]) > 1e-12*scale {
				t.Errorf("origin %v: grad[%d] = %v, oracle %v", origin, i, grad[i], want[i])
			}
			if math.Float64bits(grad[i]) != math.Float64bits(want[i]) {
				lastBit++
			}
		}
		t.Logf("origin %v: %d of %d entries differ from the oracle in the last bits", origin, lastBit, len(grad))
	}
}

// TestGradientRejectsForeignIdx: Gradient integrates over the footprints
// the last Refresh staged, so an idx of another length is a caller bug.
func TestGradientRejectsForeignIdx(t *testing.T) {
	d, idx := newDesign(10, 1)
	md := mustModel(t, d, 16, 1)
	md.Refresh(idx)
	short := idx[:len(idx)-1]
	defer func() {
		if recover() == nil {
			t.Error("Gradient accepted an idx shorter than the staged batch")
		}
	}()
	md.Gradient(short, make([]float64, 2*len(short)))
}
