package fft

import (
	"math"
	"math/rand"
	"testing"
)

// relTol32 is the per-size relative error budget of the float32 pair
// transforms against the float64 naive references: a few float32 ulps
// per butterfly stage, normalized by the output's max magnitude.
func relTol32(n int) float64 {
	stages := math.Log2(float64(n)) + 2
	return 8 * 1.2e-7 * stages
}

// maxRelErr32 returns max|got-want| / max(max|want|, 1e-30).
func maxRelErr32(got []float32, want []float64) float64 {
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

func randVec32(n int, seed int64) ([]float32, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x32 := make([]float32, n)
	x64 := make([]float64, n)
	for i := range x32 {
		v := float32(rng.Float64()*2 - 1)
		x32[i] = v
		x64[i] = float64(v) // identical inputs in both precisions
	}
	return x32, x64
}

func TestDCT2Pair32MatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		r := NewReal32(n)
		xa32, xa64 := randVec32(n, 1)
		xb32, xb64 := randVec32(n, 2)
		oa := make([]float32, n)
		ob := make([]float32, n)
		r.DCT2Pair(xa32, xb32, oa, ob)
		tol := relTol32(n)
		if e := maxRelErr32(oa, naiveDCT2(xa64)); e > tol {
			t.Errorf("n=%d DCT2Pair A rel err %g > %g", n, e, tol)
		}
		if e := maxRelErr32(ob, naiveDCT2(xb64)); e > tol {
			t.Errorf("n=%d DCT2Pair B rel err %g > %g", n, e, tol)
		}
		// The From64 variant must produce bitwise the same result for
		// inputs that are exactly representable in float32.
		oa2 := make([]float32, n)
		ob2 := make([]float32, n)
		r.DCT2PairFrom64(xa64, xb64, oa2, ob2)
		for i := range oa {
			if oa[i] != oa2[i] || ob[i] != ob2[i] {
				t.Fatalf("n=%d DCT2PairFrom64 differs from DCT2Pair at %d", n, i)
			}
		}
	}
}

func TestIDCTPair32MatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		r := NewReal32(n)
		aa32, aa64 := randVec32(n, 3)
		ab32, ab64 := randVec32(n, 4)
		oa := make([]float32, n)
		ob := make([]float32, n)
		r.IDCTPair(aa32, ab32, oa, ob)
		tol := relTol32(n)
		if e := maxRelErr32(oa, naiveIDCT(aa64)); e > tol {
			t.Errorf("n=%d IDCTPair A rel err %g > %g", n, e, tol)
		}
		if e := maxRelErr32(ob, naiveIDCT(ab64)); e > tol {
			t.Errorf("n=%d IDCTPair B rel err %g > %g", n, e, tol)
		}
		oa64 := make([]float64, n)
		ob64 := make([]float64, n)
		r.IDCTPairTo64(aa32, ab32, oa64, ob64)
		for i := range oa {
			if float64(oa[i]) != oa64[i] || float64(ob[i]) != ob64[i] {
				t.Fatalf("n=%d IDCTPairTo64 differs from IDCTPair at %d", n, i)
			}
		}
	}
}

func TestIDSTPair32MatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		r := NewReal32(n)
		aa32, aa64 := randVec32(n, 5)
		ab32, ab64 := randVec32(n, 6)
		oa := make([]float32, n)
		ob := make([]float32, n)
		r.IDSTPair(aa32, ab32, oa, ob)
		tol := relTol32(n)
		if e := maxRelErr32(oa, naiveIDST(aa64)); e > tol {
			t.Errorf("n=%d IDSTPair A rel err %g > %g", n, e, tol)
		}
		if e := maxRelErr32(ob, naiveIDST(ab64)); e > tol {
			t.Errorf("n=%d IDSTPair B rel err %g > %g", n, e, tol)
		}
		oa64 := make([]float64, n)
		ob64 := make([]float64, n)
		r.IDSTPairTo64(aa32, ab32, oa64, ob64)
		for i := range oa {
			if float64(oa[i]) != oa64[i] || float64(ob[i]) != ob64[i] {
				t.Fatalf("n=%d IDSTPairTo64 differs from IDSTPair at %d", n, i)
			}
		}
	}
}

// TestPair32InPlace checks the alias-safety contract: outputs may
// alias inputs because every input is fully staged into scratch first.
func TestPair32InPlace(t *testing.T) {
	const n = 64
	r := NewReal32(n)
	xa, _ := randVec32(n, 7)
	xb, _ := randVec32(n, 8)
	wantA := make([]float32, n)
	wantB := make([]float32, n)
	r.DCT2Pair(xa, xb, wantA, wantB)
	gotA := append([]float32(nil), xa...)
	gotB := append([]float32(nil), xb...)
	r.DCT2Pair(gotA, gotB, gotA, gotB)
	for i := range wantA {
		if gotA[i] != wantA[i] || gotB[i] != wantB[i] {
			t.Fatalf("in-place DCT2Pair differs at %d", i)
		}
	}

	r.IDCTPair(xa, xb, wantA, wantB)
	copy(gotA, xa)
	copy(gotB, xb)
	r.IDCTPair(gotA, gotB, gotA, gotB)
	for i := range wantA {
		if gotA[i] != wantA[i] || gotB[i] != wantB[i] {
			t.Fatalf("in-place IDCTPair differs at %d", i)
		}
	}

	r.IDSTPair(xa, xb, wantA, wantB)
	copy(gotA, xa)
	copy(gotB, xb)
	r.IDSTPair(gotA, gotB, gotA, gotB)
	for i := range wantA {
		if gotA[i] != wantA[i] || gotB[i] != wantB[i] {
			t.Fatalf("in-place IDSTPair differs at %d", i)
		}
	}
}

// TestPair32RoundTrip checks DCT2Pair followed by the scaled IDCTPair
// reconstructs the input within float32 tolerance (the a_0 full-weight
// convention: a_0 scales by 1/n, a_u by 2/n).
func TestPair32RoundTrip(t *testing.T) {
	const n = 256
	r := NewReal32(n)
	xa, xa64 := randVec32(n, 9)
	xb, xb64 := randVec32(n, 10)
	ca := make([]float32, n)
	cb := make([]float32, n)
	r.DCT2Pair(xa, xb, ca, cb)
	ca[0] /= float32(n)
	cb[0] /= float32(n)
	for u := 1; u < n; u++ {
		ca[u] *= 2 / float32(n)
		cb[u] *= 2 / float32(n)
	}
	oa := make([]float32, n)
	ob := make([]float32, n)
	r.IDCTPair(ca, cb, oa, ob)
	tol := 2 * relTol32(n)
	if e := maxRelErr32(oa, xa64); e > tol {
		t.Errorf("round trip A rel err %g > %g", e, tol)
	}
	if e := maxRelErr32(ob, xb64); e > tol {
		t.Errorf("round trip B rel err %g > %g", e, tol)
	}
}

func BenchmarkDCT2Pair32_512(b *testing.B) {
	r := NewReal32(512)
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
