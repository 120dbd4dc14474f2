package wirelength

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
)

// serialReference reproduces the original single-goroutine eval loop
// (shared scratch, direct scatter) as shipped in the seed tree, over the
// unfused axisWA/axisLSE: math.Exp for every term and a division
// wherever the formula has one. Like the model, it sums the live nets
// only (those with a pin on a model cell). It is the independent oracle:
// the fused kernels (reciprocal multiplies, their own exponential) agree
// with it to rounding, and with themselves bit for bit at every worker
// count.
func serialReference(m *Model, grad []float64) float64 {
	d := m.d
	n := len(m.idx)
	if grad != nil {
		for i := range grad {
			grad[i] = 0
		}
	}
	xs := make([]float64, m.maxDeg)
	ys := make([]float64, m.maxDeg)
	gx := make([]float64, m.maxDeg)
	gy := make([]float64, m.maxDeg)
	cells := make([]int, m.maxDeg)
	total := 0.0
	for ni := range d.Nets {
		net := &d.Nets[ni]
		deg := len(net.Pins)
		if deg < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		axs, ays := xs[:deg], ys[:deg]
		live := false
		for p, pi := range net.Pins {
			pos := d.PinPos(pi)
			axs[p] = pos.X
			ays[p] = pos.Y
			cells[p] = d.Pins[pi].Cell
			live = live || (cells[p] >= 0 && m.slot[cells[p]] >= 0)
		}
		if !live {
			continue
		}
		var cost float64
		if grad == nil {
			cost = m.axis(axs, nil) + m.axis(ays, nil)
		} else {
			agx, agy := gx[:deg], gy[:deg]
			cost = m.axis(axs, agx) + m.axis(ays, agy)
			for p := 0; p < deg; p++ {
				ci := cells[p]
				if ci < 0 {
					continue
				}
				if s := int(m.slot[ci]); s >= 0 {
					grad[s] += w * agx[p]
					grad[s+n] += w * agy[p]
				}
			}
		}
		total += w * cost
	}
	return total
}

// refTol is the agreement the fused kernels owe the reference: the cost
// relative to itself, a derivative relative to the largest |derivative|
// of the evaluation (a cell's entry sums several nets' terms, and a term
// that cancels to 0 in one arithmetic is a rounding of its net's largest
// in the other).
const refTol = 1e-13

// diffFromReference describes the first disagreement beyond refTol
// between an evaluation and the reference's, or returns "". floor is an
// absolute allowance on derivatives for nets whose reference derivatives
// are all exactly 0. A NaN agrees with a NaN.
func diffFromReference(cost, refCost float64, grad, refGrad []float64, floor float64) string {
	near := func(a, b, tol float64) bool {
		return a == b || (a != a && b != b) || math.Abs(a-b) <= tol
	}
	if !near(cost, refCost, refTol*math.Abs(refCost)) {
		return fmt.Sprintf("cost %v, reference %v", cost, refCost)
	}
	scale := 0.0
	for _, g := range refGrad {
		if a := math.Abs(g); a > scale && !math.IsInf(a, 0) {
			scale = a
		}
	}
	for i := range grad {
		if !near(grad[i], refGrad[i], max(refTol*scale, floor)) {
			return fmt.Sprintf("grad[%d] = %v, reference %v (largest |derivative| %v)", i, grad[i], refGrad[i], scale)
		}
	}
	return ""
}

// sameBits describes the first element of got that is not want's bits.
func sameBits(got, want []float64) string {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("[%d] = %v (%x), want %v (%x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

func workerCounts() []int {
	counts := []int{1, 2, 7, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		counts = append(counts, 4) // still exercise the sharded path
	}
	return counts
}

// TestEvalParallelEquivalence asserts that the serial evaluation agrees
// with the seed serial loop to rounding and that every other worker count
// reproduces the serial evaluation bit for bit, for both smoothing models.
func TestEvalParallelEquivalence(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "wl-par", NumCells: 1500, NumMovableMacros: 3})
	idx := d.Movable()
	for _, kind := range []Kind{WA, LSE} {
		m := New(d, idx, 4.2)
		m.Kind = kind
		refGrad := make([]float64, 2*len(idx))
		refCost := serialReference(m, refGrad)
		refCostOnly := serialReference(m, nil)

		m.Workers = 1
		grad1 := make([]float64, 2*len(idx))
		cost1 := m.CostAndGradient(grad1)
		costOnly1 := m.Cost()
		if diff := diffFromReference(cost1, refCost, grad1, refGrad, 0); diff != "" {
			t.Fatalf("kind=%d workers=1 against the serial reference: %s", kind, diff)
		}
		if diff := diffFromReference(costOnly1, refCostOnly, nil, nil, 0); diff != "" {
			t.Fatalf("kind=%d workers=1 cost-only against the serial reference: %s", kind, diff)
		}

		grad := make([]float64, 2*len(idx))
		for _, workers := range workerCounts() {
			m.Workers = workers
			cost := m.CostAndGradient(grad)
			if math.Float64bits(cost) != math.Float64bits(cost1) {
				t.Fatalf("kind=%d workers=%d: cost %x != workers-1 %x", kind, workers,
					math.Float64bits(cost), math.Float64bits(cost1))
			}
			if diff := sameBits(grad, grad1); diff != "" {
				t.Fatalf("kind=%d workers=%d: grad%s (workers-1)", kind, workers, diff)
			}
			if co := m.Cost(); math.Float64bits(co) != math.Float64bits(costOnly1) {
				t.Fatalf("kind=%d workers=%d: cost-only %x != workers-1 %x", kind, workers,
					math.Float64bits(co), math.Float64bits(costOnly1))
			}
		}
	}
}

// TestGradientFiniteDifferenceParallel checks the sharded gradient
// against central finite differences while the evaluation fans out over
// multiple workers; running it under -race exercises the pipeline's
// write ownership.
func TestGradientFiniteDifferenceParallel(t *testing.T) {
	d, idx := randomDesign(40, 7)
	m := New(d, idx, 2.0)
	m.Workers = 4
	n := len(idx)
	grad := make([]float64, 2*n)
	m.CostAndGradient(grad)

	v := d.Positions(idx)
	h := 1e-6
	for _, k := range []int{0, 3, n - 1, n, n + 5, 2*n - 1} {
		orig := v[k]
		v[k] = orig + h
		d.SetPositions(idx, v)
		up := m.Cost()
		v[k] = orig - h
		d.SetPositions(idx, v)
		dn := m.Cost()
		v[k] = orig
		d.SetPositions(idx, v)
		fd := (up - dn) / (2 * h)
		if diff := math.Abs(fd - grad[k]); diff > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %v, finite difference %v", k, grad[k], fd)
		}
	}
}

// TestZeroWeightNetScoresIdentically locks the EffWeight contract: a
// zero-weight net (unweighted input) must score exactly like weight 1
// in both the exact HPWL metric and the smooth model, so the two can
// never drift.
func TestZeroWeightNetScoresIdentically(t *testing.T) {
	build := func(w float64) (*netlist.Design, []int) {
		d, idx := randomDesign(20, 11)
		ni := d.AddNet("probe", w)
		d.Connect(idx[2], ni, 0, 0)
		d.Connect(idx[9], ni, 0.5, -0.5)
		d.Connect(idx[15], ni, -0.5, 0.5)
		return d, idx
	}
	d0, idx0 := build(0)
	d1, idx1 := build(1)

	if h0, h1 := d0.HPWL(), d1.HPWL(); math.Float64bits(h0) != math.Float64bits(h1) {
		t.Fatalf("HPWL differs: weight0 %v, weight1 %v", h0, h1)
	}
	m0 := New(d0, idx0, 1.5)
	m1 := New(d1, idx1, 1.5)
	g0 := make([]float64, 2*len(idx0))
	g1 := make([]float64, 2*len(idx1))
	c0 := m0.CostAndGradient(g0)
	c1 := m1.CostAndGradient(g1)
	if math.Float64bits(c0) != math.Float64bits(c1) {
		t.Fatalf("smooth cost differs: weight0 %v, weight1 %v", c0, c1)
	}
	for i := range g0 {
		if math.Float64bits(g0[i]) != math.Float64bits(g1[i]) {
			t.Fatalf("gradient[%d] differs: weight0 %v, weight1 %v", i, g0[i], g1[i])
		}
	}
}

// BenchmarkWAGradient measures one WA cost+gradient evaluation on a
// >=10K-cell synthetic design across worker counts (acceptance: >=2x at
// 4+ cores vs workers-1 on multi-core hardware).
func BenchmarkWAGradient(b *testing.B) {
	d := synth.Generate(synth.Spec{Name: "wl-bench", NumCells: 12000, NumMovableMacros: 8})
	idx := d.Movable()
	m := New(d, idx, 3.0)
	grad := make([]float64, 2*len(idx))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			m.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.CostAndGradient(grad)
			}
		})
	}
}
