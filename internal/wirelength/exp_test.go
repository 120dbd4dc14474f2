package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// oneNetDesign builds one net over len(xs) cells, one pin each at the
// cell center, so the net's pin coordinates are exactly (xs[p], ys[p]).
func oneNetDesign(xs, ys []float64) (*netlist.Design, []int) {
	d := netlist.New("one-net", geom.Rect{Hx: 100, Hy: 100})
	ni := d.AddNet("n", 1.25)
	idx := make([]int, len(xs))
	for p := range xs {
		idx[p] = d.AddCell(netlist.Cell{W: 1, H: 1, X: xs[p], Y: ys[p]})
		d.Connect(idx[p], ni, 0, 0)
	}
	return d, idx
}

// sameFloat is bitwise equality, with any NaN equal to any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestExpOfZeroIsOne pins the library fact expTerms relies on when it
// writes 1 for the e+ of a pin at xmax and the e- of a pin at xmin
// instead of calling math.Exp on their +-0 arguments.
func TestExpOfZeroIsOne(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if math.Exp(0) != 1 || math.Exp(negZero) != 1 {
		t.Fatalf("math.Exp(+0) = %v, math.Exp(-0) = %v; expTerms assumes both are exactly 1",
			math.Exp(0), math.Exp(negZero))
	}
}

// TestExpDedupMatchesReferenceOnDegenerateNets compares the fused
// kernels with axisWA/axisLSE, which call math.Exp for every term, on
// the nets where a skipped call could show: ties at an extreme, zero
// span, signed zeros, a NaN pin and a net far larger than the random
// designs produce. Agreement is to rounding (refTol); where every exact
// derivative is 0 (all pins coincident) the reference returns 0 and the
// fused kernel up to 4 ulp of the net weight, because its n*(x/gamma)
// and (n*x)/gamma are separate roundings.
func TestExpDedupMatchesReferenceOnDegenerateNets(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(4))
	big := make([]float64, 1000)
	for i := range big {
		big[i] = rng.Float64() * 100
	}
	big[17], big[600] = big[3], big[3] // interior ties as well
	cases := []struct {
		name string
		xs   []float64
	}{
		{"two pins tied at xmax", []float64{1, 5, 5}},
		{"two pins tied at xmin", []float64{2, 7, 2, 4}},
		{"all pins coincident", []float64{3.5, 3.5, 3.5}},
		{"two-pin net, equal coordinates", []float64{42, 42}},
		{"two-pin net", []float64{10, 30}},
		{"+0 then -0", []float64{0, negZero}},
		{"-0 then +0", []float64{negZero, 0}},
		{"-0 and +0 below a third pin", []float64{negZero, 0, 3}},
		{"+0 and -0 above a third pin", []float64{0, -3, negZero}},
		{"1000 pins", big},
		{"NaN in the first pin", []float64{math.NaN(), 2, 9}},
		{"NaN in a later pin", []float64{4, math.NaN(), 9, 1}},
	}
	for _, tc := range cases {
		// y runs through the same values in reverse pin order, so both
		// axes meet the case with the extremes at different pins.
		ys := make([]float64, len(tc.xs))
		for p := range ys {
			ys[p] = tc.xs[len(ys)-1-p]
		}
		for _, kind := range []Kind{WA, LSE} {
			d, idx := oneNetDesign(tc.xs, ys)
			m := New(d, idx, 0.75)
			m.Kind = kind
			grad := make([]float64, 2*len(idx))
			cost := m.CostAndGradient(grad)
			costOnly := m.Cost()
			refGrad := make([]float64, 2*len(idx))
			refCost := serialReference(m, refGrad)
			if !sameFloat(cost, costOnly) {
				t.Errorf("%s, kind %d: cost %x, cost-only %x", tc.name, kind,
					math.Float64bits(cost), math.Float64bits(costOnly))
			}
			const netWeight = 1.25 // oneNetDesign's
			if diff := diffFromReference(cost, refCost, grad, refGrad, 4*netWeight*0x1p-52); diff != "" {
				t.Errorf("%s, kind %d: %s", tc.name, kind, diff)
			}
		}
	}
}

// TestInfiniteCoordinateStaysNonFinite: the reference turns an infinite
// pin into Exp(Inf-Inf) = NaN, which is how a diverged iterate reaches
// the engine's guard. Writing 1 for the tied term must not hide it.
func TestInfiniteCoordinateStaysNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, xs := range [][]float64{
		{1, inf, 3},
		{-inf, 2},
		{inf, 5, -inf},
		{inf, inf},
	} {
		ys := make([]float64, len(xs))
		for p := range ys {
			ys[p] = float64(p)
		}
		for _, kind := range []Kind{WA, LSE} {
			d, idx := oneNetDesign(xs, ys)
			m := New(d, idx, 0.75)
			m.Kind = kind
			grad := make([]float64, 2*len(idx))
			cost := m.CostAndGradient(grad)
			if !math.IsNaN(cost) && !math.IsInf(cost, 0) {
				t.Errorf("xs %v, kind %d: cost %v is finite", xs, kind, cost)
			}
			for k := range idx { // the x half; y is an ordinary finite axis
				if !math.IsNaN(grad[k]) && !math.IsInf(grad[k], 0) {
					t.Errorf("xs %v, kind %d: d/dx of pin %d = %v is finite", xs, kind, k, grad[k])
				}
			}
		}
	}
}
