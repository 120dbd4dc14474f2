//go:build amd64

package fft

import "testing"

// TestScalarFallbackMatchesNaive builds float32 plans with the AVX2
// kernels switched off and holds the portable butterflies to the naive
// references, so the non-AVX2 path stays correct even when CI machines
// all take the vector path.
func TestScalarFallbackMatchesNaive(t *testing.T) {
	if !useAVX2 {
		t.Skip("already on the scalar path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	if New[float32](256).full.vec {
		t.Fatal("a plan built without AVX2 selected the vector kernel")
	}
	for _, p := range pairTransforms {
		pairMatchesNaive[float32](t, p)
	}
}
