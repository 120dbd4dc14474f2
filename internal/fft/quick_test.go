package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: forward then inverse recovers the input (scaled by n) for
// arbitrary random vectors and sizes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (2 + sizeSel%8) // 4..512
		rng := rand.New(rand.NewSource(seed))
		p := newPlan[float64](n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := toCplx(x)
		dft(p, y, false)
		dft(p, y, true)
		for i, v := range y {
			if cmplx.Abs(complex(v.re, v.im)/complex(float64(n), 0)-x[i]) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: DCT2 of a constant vector concentrates all energy in the
// zero coefficient.
func TestQuickDCTConstant(t *testing.T) {
	f := func(cRaw int16, sizeSel uint8) bool {
		n := 1 << (1 + sizeSel%8)
		c := float64(cRaw) / 64
		r := NewReal(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = c
		}
		out := make([]float64, n)
		r.DCT2(x, out)
		if math.Abs(out[0]-c*float64(n)) > 1e-9*float64(n)*(1+math.Abs(c)) {
			return false
		}
		for u := 1; u < n; u++ {
			if math.Abs(out[u]) > 1e-8*(1+math.Abs(c))*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the cosine and sine reconstructions agree with the naive
// O(n^2) references on random coefficient vectors.
func TestQuickMatchesNaive(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (1 + sizeSel%6) // 2..64 (naive is quadratic)
		rng := rand.New(rand.NewSource(seed))
		r := NewReal(n)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		c := make([]float64, n)
		s := make([]float64, n)
		r.IDCTPair(a, a, c, c)
		r.IDSTPair(a, a, s, s)
		wc := naiveIDCT(a)
		ws := naiveIDST(a)
		for i := 0; i < n; i++ {
			if math.Abs(c[i]-wc[i]) > 1e-8*float64(n) || math.Abs(s[i]-ws[i]) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
