//go:build amd64

package fft

import (
	"math/rand"
	"testing"
)

func toF64(x []float32) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// TestScalarFallbackMatchesNaive forces the portable butterfly kernel
// and pins it against the float64 naive references, so the non-AVX2
// path stays correct even when CI machines all take the vector path.
func TestScalarFallbackMatchesNaive(t *testing.T) {
	if !useAVX2 {
		t.Skip("already on the scalar path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		r := NewReal32(n)
		xA := make([]float32, n)
		xB := make([]float32, n)
		for j := range xA {
			xA[j] = float32(rng.Float64()*2 - 1)
			xB[j] = float32(rng.Float64()*2 - 1)
		}
		outA := make([]float32, n)
		outB := make([]float32, n)
		r.DCT2Pair(xA, xB, outA, outB)
		wantA := naiveDCT2(toF64(xA))
		wantB := naiveDCT2(toF64(xB))
		tol := relTol32(n)
		if e := maxRelErr32(outA, wantA); e > tol {
			t.Errorf("scalar DCT2Pair n=%d A: rel err %.3g > %.3g", n, e, tol)
		}
		if e := maxRelErr32(outB, wantB); e > tol {
			t.Errorf("scalar DCT2Pair n=%d B: rel err %.3g > %.3g", n, e, tol)
		}

		r.IDCTPair(xA, xB, outA, outB)
		wantA = naiveIDCT(toF64(xA))
		wantB = naiveIDCT(toF64(xB))
		if e := maxRelErr32(outA, wantA); e > tol {
			t.Errorf("scalar IDCTPair n=%d A: rel err %.3g > %.3g", n, e, tol)
		}
		if e := maxRelErr32(outB, wantB); e > tol {
			t.Errorf("scalar IDCTPair n=%d B: rel err %.3g > %.3g", n, e, tol)
		}

		r.IDSTPair(xA, xB, outA, outB)
		wantA = naiveIDST(toF64(xA))
		wantB = naiveIDST(toF64(xB))
		if e := maxRelErr32(outA, wantA); e > tol {
			t.Errorf("scalar IDSTPair n=%d A: rel err %.3g > %.3g", n, e, tol)
		}
		if e := maxRelErr32(outB, wantB); e > tol {
			t.Errorf("scalar IDSTPair n=%d B: rel err %.3g > %.3g", n, e, tol)
		}
	}
}
