package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// naiveDCT2 is the O(n^2) reference for DCT2 and DCT2Pair.
func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(u)*float64(2*i+1)/float64(2*n))
		}
		out[u] = s
	}
	return out
}

// naiveIDCT is the O(n^2) reference for the cosine reconstruction.
func naiveIDCT(a []float64) []float64 {
	n := len(a)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for u := 0; u < n; u++ {
			s += a[u] * math.Cos(math.Pi*float64(u)*float64(2*i+1)/float64(2*n))
		}
		out[i] = s
	}
	return out
}

// naiveIDST is the O(n^2) reference for the sine reconstruction.
func naiveIDST(a []float64) []float64 {
	n := len(a)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for u := 0; u < n; u++ {
			s += a[u] * math.Sin(math.Pi*float64(u)*float64(2*i+1)/float64(2*n))
		}
		out[i] = s
	}
	return out
}

func TestPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newPlan(%d) did not panic", n)
				}
			}()
			newPlan(n)
		}()
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		p := newPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		p.forward(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 32
	p := newPlan(n)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := naiveDFT(x, true)
	got := append([]complex128(nil), x...)
	p.inverse(got)
	for k := range got {
		if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
			t.Fatalf("k=%d got %v want %v", k, got[k], want[k])
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 32, 256, 1024} {
		p := newPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		p.forward(y)
		p.inverse(y)
		for i := range y {
			if cmplx.Abs(y[i]/complex(float64(n), 0)-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d i=%d round trip %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestParsevalEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	p := newPlan(n)
	x := make([]complex128, n)
	timeE := 0.0
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	p.forward(x)
	freqE := 0.0
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-8*timeE {
		t.Errorf("Parseval: time %v freq/n %v", timeE, freqE/float64(n))
	}
}

// allSizes is every power of two the acceptance bar names: the packed
// transforms must match the O(n^2) references at 1e-9 relative error
// on all of them (plus the degenerate n=1).
var allSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDCT2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range allSizes {
		r := NewReal(n)
		x := randVec(rng, n)
		got := make([]float64, n)
		r.DCT2(x, got)
		want := naiveDCT2(x)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Fatalf("n=%d DCT2 max diff %v", n, d)
		}
	}
}

// The pair transforms must agree with the naive references on both
// channels at every size: the packing separation is exact up to
// rounding.
func TestPairTransformsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range allSizes {
		r := NewReal(n)
		a := randVec(rng, n)
		b := randVec(rng, n)
		gotA := make([]float64, n)
		gotB := make([]float64, n)

		r.DCT2Pair(a, b, gotA, gotB)
		if d := maxAbsDiff(gotA, naiveDCT2(a)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d DCT2Pair A max diff %v", n, d)
		}
		if d := maxAbsDiff(gotB, naiveDCT2(b)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d DCT2Pair B max diff %v", n, d)
		}

		r.IDCTPair(a, b, gotA, gotB)
		if d := maxAbsDiff(gotA, naiveIDCT(a)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d IDCTPair A max diff %v", n, d)
		}
		if d := maxAbsDiff(gotB, naiveIDCT(b)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d IDCTPair B max diff %v", n, d)
		}

		r.IDSTPair(a, b, gotA, gotB)
		if d := maxAbsDiff(gotA, naiveIDST(a)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d IDSTPair A max diff %v", n, d)
		}
		if d := maxAbsDiff(gotB, naiveIDST(b)); d > 1e-9*float64(n) {
			t.Fatalf("n=%d IDSTPair B max diff %v", n, d)
		}
	}
}

// The Poisson pipeline transforms coefficient planes in place, so every
// transform must tolerate out aliasing the input.
func TestTransformsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 64, 512} {
		r := NewReal(n)
		a := randVec(rng, n)
		b := randVec(rng, n)

		ref := make([]float64, n)
		r.DCT2(a, ref)
		got := append([]float64(nil), a...)
		r.DCT2(got, got)
		if maxAbsDiff(got, ref) != 0 {
			t.Fatalf("n=%d DCT2 in place differs", n)
		}

		refB := make([]float64, n)
		r.IDCTPair(a, b, ref, refB)
		gotA := append([]float64(nil), a...)
		gotB := append([]float64(nil), b...)
		r.IDCTPair(gotA, gotB, gotA, gotB)
		if maxAbsDiff(gotA, ref) != 0 || maxAbsDiff(gotB, refB) != 0 {
			t.Fatalf("n=%d IDCTPair in place differs", n)
		}

		r.IDSTPair(a, b, ref, refB)
		copy(gotA, a)
		copy(gotB, b)
		r.IDSTPair(gotA, gotB, gotA, gotB)
		if maxAbsDiff(gotA, ref) != 0 || maxAbsDiff(gotB, refB) != 0 {
			t.Fatalf("n=%d IDSTPair in place differs", n)
		}
	}
}

// Property: DCT2 followed by the cosine reconstruction with the
// standard normalization recovers the input:
// x_i = (2/n) * sum_u s_u X_u cos(...), s_0 = 1/2.
func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 8, 64, 512, 1024} {
		r := NewReal(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		coef := make([]float64, n)
		r.DCT2(x, coef)
		for u := range coef {
			coef[u] *= 2 / float64(n)
		}
		coef[0] /= 2
		back := make([]float64, n)
		r.IDCTPair(coef, coef, back, back)
		if d := maxAbsDiff(back, x); d > 1e-8 {
			t.Fatalf("n=%d DCT round trip max diff %v", n, d)
		}
	}
}

// Property: the reconstruction of a pure cosine mode is exact.
func TestSingleModeReconstruction(t *testing.T) {
	n := 32
	r := NewReal(n)
	for u := 0; u < n; u += 5 {
		a := make([]float64, n)
		a[u] = 1
		got := make([]float64, n)
		r.IDCTPair(a, a, got, got)
		for i := 0; i < n; i++ {
			want := math.Cos(math.Pi * float64(u) * float64(2*i+1) / float64(2*n))
			if math.Abs(got[i]-want) > 1e-10 {
				t.Fatalf("mode u=%d sample i=%d: got %v want %v", u, i, got[i], want)
			}
		}
	}
}

// Property: the sine reconstruction of the u=0 mode is identically zero.
func TestIDSTZeroMode(t *testing.T) {
	n := 16
	r := NewReal(n)
	a := make([]float64, n)
	a[0] = 123.456
	out := make([]float64, n)
	r.IDSTPair(a, a, out, out)
	for i, v := range out {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("IDST zero mode leaked at %d: %v", i, v)
		}
	}
}

// Property: transforms are linear.
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 64
	r := NewReal(n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = 2*a[i] - 3*b[i]
	}
	ta := make([]float64, n)
	tb := make([]float64, n)
	ts := make([]float64, n)
	r.DCT2(a, ta)
	r.DCT2(b, tb)
	r.DCT2(sum, ts)
	for i := range ts {
		if math.Abs(ts[i]-(2*ta[i]-3*tb[i])) > 1e-8 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p := newPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.forward(x)
	}
}

func benchInput(n int) (*Real, []float64, []float64) {
	r := NewReal(n)
	x := make([]float64, n)
	out := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 13)
	}
	return r, x, out
}

func BenchmarkDCT2_128(b *testing.B) {
	r, x, out := benchInput(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DCT2(x, out)
	}
}

func BenchmarkDCT2_256(b *testing.B) {
	r, x, out := benchInput(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DCT2(x, out)
	}
}

func BenchmarkDCT2_512(b *testing.B) {
	r, x, out := benchInput(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DCT2(x, out)
	}
}

// BenchmarkDCT2Pair_512 amortizes one full-length FFT over two rows —
// the per-row cost should undercut two single DCT2 calls.
func BenchmarkDCT2Pair_512(b *testing.B) {
	r, x, out := benchInput(512)
	x2 := append([]float64(nil), x...)
	out2 := make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DCT2Pair(x, x2, out, out2)
	}
}
