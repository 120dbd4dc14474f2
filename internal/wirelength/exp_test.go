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

// ulpsApart is the distance between two finite doubles of one sign,
// counted in representable values.
func ulpsApart(a, b float64) uint64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	if ab > bb {
		return ab - bb
	}
	return bb - ab
}

// checkExpNeg holds one argument in [expCutoff, 0] to the contract.
func checkExpNeg(t *testing.T, x float64) {
	t.Helper()
	got, want := expNeg(x), math.Exp(x)
	if !(got <= 1) || ulpsApart(got, want) > 2 {
		t.Fatalf("expNeg(%v) = %v (%x), math.Exp %v (%x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestExpNegMatchesMathExp: a dense sweep of [expCutoff, 0], a million
// random arguments over it and a million log-uniform ones (where the WA
// arguments of a converged net sit), all within 2 ulp of math.Exp and
// none above 1.
func TestExpNegMatchesMathExp(t *testing.T) {
	const n = 1_000_000
	for i := 0; i <= n; i++ {
		checkExpNeg(t, expCutoff*float64(i)/n)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		checkExpNeg(t, expCutoff*rng.Float64())
		checkExpNeg(t, -math.Exp(rng.Float64()*59.5-53)) // -1e-23 .. -665
	}
	checkExpNeg(t, expCutoff)
	checkExpNeg(t, -math.SmallestNonzeroFloat64)
}

// TestExpNegSpecialValues replaces TestExpOfZeroIsOne: expTerms writes 1
// for the +-0 argument of a pin at its net's extreme without calling the
// exponential, which is only the same thing if the exponential says 1 too.
func TestExpNegSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if a, b := expNeg(0), expNeg(negZero); a != 1 || b != 1 {
		t.Errorf("expNeg(+0) = %v, expNeg(-0) = %v, want exactly 1", a, b)
	}
	if got := expNeg(math.NaN()); got == got {
		t.Errorf("expNeg(NaN) = %v", got)
	}
	for _, x := range []float64{math.Nextafter(expCutoff, math.Inf(-1)), -709, -745.2, -1e300, -math.MaxFloat64, math.Inf(-1)} {
		if got := expNeg(x); got != 0 || math.Signbit(got) {
			t.Errorf("expNeg(%v) = %v, want +0 below the cutoff %v", x, got, float64(expCutoff))
		}
	}
	if got := expNeg(expCutoff); got < 0x1p-1022 {
		t.Errorf("expNeg(cutoff) = %v is not a normal number", got)
	}
}

// TestExpNegMonotoneAcrossBreakpoints: the table entry, and at every
// 128th step the exponent, change where x/(ln2/128) crosses a half
// integer; the reduced argument r changes sign at the integers. Across
// both kinds of point, one ulp to either side, the result never falls.
func TestExpNegMonotoneAcrossBreakpoints(t *testing.T) {
	const step = math.Ln2 / 256
	for h := 0; -step*float64(h) >= expCutoff; h++ {
		b := -step * float64(h)
		lo, hi := math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, 0)
		if lo < expCutoff {
			lo = b
		}
		if a, m, z := expNeg(lo), expNeg(b), expNeg(hi); a > m || m > z {
			t.Fatalf("expNeg falls across %v (%d * ln2/256): %x, %x, %x", b, -h,
				math.Float64bits(a), math.Float64bits(m), math.Float64bits(z))
		}
	}
}

// BenchmarkExpNeg times the kernels' exponential beside math.Exp on one
// argument set: 1 024 values spread like a net's (x - xmax)/gamma, most
// within a few gamma of the extreme and a tail far below it.
func BenchmarkExpNeg(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	args := make([]float64, 1024)
	for i := range args {
		args[i] = -40 * rng.Float64() * rng.Float64()
	}
	for _, f := range []struct {
		name string
		exp  func(float64) float64
	}{{"expNeg", expNeg}, {"math.Exp", math.Exp}} {
		b.Run(f.name, func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += f.exp(args[i&1023])
			}
			expSink = sum
		})
	}
}

var expSink float64

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
