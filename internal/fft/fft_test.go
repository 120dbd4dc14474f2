package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"unsafe"
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

// toCplx copies x into the transforms' sample type.
func toCplx(x []complex128) []cplx[float64] {
	out := make([]cplx[float64], len(x))
	for i, v := range x {
		out[i] = cplx[float64]{real(v), imag(v)}
	}
	return out
}

// dft runs p's forward (or unnormalized inverse) DFT on natural-order x
// in place: the bit-reversal the transforms fuse into their gathers,
// then the butterflies.
func dft[T float](p *plan[T], x []cplx[T], inverse bool) {
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x, inverse)
}

func TestPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newPlan(%d) did not panic", n)
				}
			}()
			newPlan[float64](n)
		}()
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		p := newPlan[float64](n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x, false)
		got := toCplx(x)
		dft(p, got, false)
		for k, g := range got {
			if cmplx.Abs(complex(g.re, g.im)-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d got %v want %v", n, k, g, want[k])
			}
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 32
	p := newPlan[float64](n)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := naiveDFT(x, true)
	got := toCplx(x)
	dft(p, got, true)
	for k, g := range got {
		if cmplx.Abs(complex(g.re, g.im)-want[k]) > 1e-9*float64(n) {
			t.Fatalf("k=%d got %v want %v", k, g, want[k])
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 32, 256, 1024} {
		p := newPlan[float64](n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := toCplx(x)
		dft(p, y, false)
		dft(p, y, true)
		for i, v := range y {
			if cmplx.Abs(complex(v.re, v.im)/complex(float64(n), 0)-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d i=%d round trip %v vs %v", n, i, v, x[i])
			}
		}
	}
}

func TestParsevalEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	p := newPlan[float64](n)
	x := make([]cplx[float64], n)
	timeE := 0.0
	for i := range x {
		x[i].re = rng.NormFloat64()
		timeE += x[i].re * x[i].re
	}
	dft(p, x, false)
	freqE := 0.0
	for _, v := range x {
		freqE += v.re*v.re + v.im*v.im
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-8*timeE {
		t.Errorf("Parseval: time %v freq/n %v", timeE, freqE/float64(n))
	}
}

// allSizes is every power of two the acceptance bar names: the packed
// transforms must match the O(n^2) references on all of them (plus the
// degenerate n=1).
var allSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// eachPrecision runs a test body once per sample precision, the float64
// and float32 instantiations of the same generic function.
func eachPrecision(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// relTol is precision T's error budget against the float64 naive
// references, relative to the output's max magnitude. float32 allows a
// few ulps per butterfly stage. For float64 the references are the
// limit: their cosine arguments grow to ~pi*n, so each term carries an
// absolute error of a few ulps of pi*n.
func relTol[T float](n int) float64 {
	stages := math.Log2(float64(n)) + 2
	if unsafe.Sizeof(T(0)) == 4 {
		return 8 * 1.2e-7 * stages
	}
	return 8 * 2.3e-16 * float64(n) * stages
}

// maxRelErr returns max|got-want| / max(max|want|, 1e-30).
func maxRelErr[T float](got []T, want []float64) float64 {
	scale := 1e-30
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	worst := 0.0
	for i := range got {
		if d := math.Abs(float64(got[i]) - want[i]); d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

// randT returns a uniform random vector in [-1, 1) rounded to T, and
// its float64 widening: identical inputs for the transform and the
// naive reference.
func randT[T float](rng *rand.Rand, n int) ([]T, []float64) {
	x := make([]T, n)
	x64 := make([]float64, n)
	for i := range x {
		x[i] = T(rng.Float64()*2 - 1)
		x64[i] = float64(x[i])
	}
	return x, x64
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
// rounding. The float64-staged variants must give the same bits as the
// plain ones on inputs exact in T. float64 runs here, float32 in one
// test per transform below.
func TestPairTransformsMatchNaive(t *testing.T) {
	for _, p := range pairTransforms {
		pairMatchesNaive[float64](t, p)
	}
}

func TestDCT2Pair32MatchesNaive(t *testing.T) { pairMatchesNaive[float32](t, pairDCT2) }
func TestIDCTPair32MatchesNaive(t *testing.T) { pairMatchesNaive[float32](t, pairIDCT) }
func TestIDSTPair32MatchesNaive(t *testing.T) { pairMatchesNaive[float32](t, pairIDST) }

// pairTransform names one pair transform of Real[T] for
// pairMatchesNaive.
type pairTransform string

const (
	pairDCT2 pairTransform = "DCT2Pair"
	pairIDCT pairTransform = "IDCTPair"
	pairIDST pairTransform = "IDSTPair"
)

var pairTransforms = []pairTransform{pairDCT2, pairIDCT, pairIDST}

// pairMatchesNaive holds pair transform p of Real[T] to its naive
// reference, each channel scaled by its own largest output, and its
// float64-staged variant (DCT2PairFrom64, IDCTPairTo64 or IDSTPairTo64)
// to the plain form's bits.
func pairMatchesNaive[T float](t *testing.T, p pairTransform) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range allSizes {
		r := New[T](n)
		a, a64 := randT[T](rng, n)
		b, b64 := randT[T](rng, n)
		gotA, gotB := make([]T, n), make([]T, n)
		wideA, wideB := make([]float64, n), make([]float64, n)
		var naive func([]float64) []float64
		switch p {
		case pairDCT2:
			r.DCT2Pair(a, b, gotA, gotB)
			stagedA, stagedB := make([]T, n), make([]T, n)
			r.DCT2PairFrom64(a64, b64, stagedA, stagedB)
			wideA, wideB = toF64(stagedA), toF64(stagedB)
			naive = naiveDCT2
		case pairIDCT:
			r.IDCTPair(a, b, gotA, gotB)
			r.IDCTPairTo64(a, b, wideA, wideB)
			naive = naiveIDCT
		case pairIDST:
			r.IDSTPair(a, b, gotA, gotB)
			r.IDSTPairTo64(a, b, wideA, wideB)
			naive = naiveIDST
		default:
			t.Fatalf("unknown pair transform %q", p)
		}
		tol := relTol[T](n)
		if e := maxRelErr(gotA, naive(a64)); e > tol {
			t.Errorf("n=%d %s A rel err %g > %g", n, p, e, tol)
		}
		if e := maxRelErr(gotB, naive(b64)); e > tol {
			t.Errorf("n=%d %s B rel err %g > %g", n, p, e, tol)
		}
		for i := range gotA {
			if float64(gotA[i]) != wideA[i] || float64(gotB[i]) != wideB[i] {
				t.Fatalf("n=%d %s float64-staged variant differs from the plain transform at %d", n, p, i)
			}
		}
	}
}

func toF64[T float](x []T) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// The Poisson pipeline transforms coefficient planes in place, so every
// transform must tolerate out aliasing the input, with the same bits.
func TestTransformsInPlace(t *testing.T) {
	eachPrecision(t, transformsInPlace[float64], transformsInPlace[float32])
}

func transformsInPlace[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 64, 512} {
		r := New[T](n)
		a, _ := randT[T](rng, n)
		b, _ := randT[T](rng, n)
		for _, tr := range []struct {
			name string
			f    func(aA, aB, outA, outB []T)
		}{
			{"DCT2", func(aA, aB, outA, outB []T) { r.DCT2(aA, outA); r.DCT2(aB, outB) }},
			{"DCT2Pair", r.DCT2Pair},
			{"IDCTPair", r.IDCTPair},
			{"IDSTPair", r.IDSTPair},
		} {
			refA, refB := make([]T, n), make([]T, n)
			tr.f(a, b, refA, refB)
			gotA, gotB := append([]T(nil), a...), append([]T(nil), b...)
			tr.f(gotA, gotB, gotA, gotB)
			for i := range refA {
				if gotA[i] != refA[i] || gotB[i] != refB[i] {
					t.Fatalf("n=%d %s in place differs at %d", n, tr.name, i)
				}
			}
		}
	}
}

// Property: DCT2 (channel A) and DCT2Pair (channel B), each followed by
// the cosine reconstruction with the standard normalization, recover
// the input: x_i = (2/n) * sum_u s_u X_u cos(...), s_0 = 1/2.
func TestDCTRoundTrip(t *testing.T) {
	eachPrecision(t, dctRoundTrip[float64], dctRoundTrip[float32])
}

func dctRoundTrip[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 8, 64, 256, 512, 1024} {
		r := New[T](n)
		xa, xa64 := randT[T](rng, n)
		xb, xb64 := randT[T](rng, n)
		ca, cb, tmp := make([]T, n), make([]T, n), make([]T, n)
		r.DCT2(xa, ca)
		r.DCT2Pair(xa, xb, tmp, cb)
		for u := range ca {
			s := 2 / T(n)
			if u == 0 {
				s = 1 / T(n)
			}
			ca[u] *= s
			cb[u] *= s
		}
		r.IDCTPair(ca, cb, ca, cb)
		tol := 2 * relTol[T](n)
		if e := maxRelErr(ca, xa64); e > tol {
			t.Errorf("n=%d round trip A rel err %g > %g", n, e, tol)
		}
		if e := maxRelErr(cb, xb64); e > tol {
			t.Errorf("n=%d round trip B rel err %g > %g", n, e, tol)
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
	p := newPlan[float64](1024)
	x := make([]cplx[float64], 1024)
	for i := range x {
		x[i] = cplx[float64]{float64(i % 7), float64(i % 3)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dft(p, x, false)
	}
}

func benchInput(n int) (*Real[float64], []float64, []float64) {
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

func BenchmarkDCT2Pair32_512(b *testing.B) {
	r := New[float32](512)
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(i % 13)
	}
	o1 := make([]float32, 512)
	o2 := make([]float32, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DCT2Pair(x, x, o1, o2)
	}
}
