package fft

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzReorderTables checks the structural invariants of the packed
// transform tables at fuzzed sizes: the Makhoul input reorder and the
// inverse output scatter must both be permutations of [0, n), the
// even/odd structure the scatter's sign folding relies on must hold
// (b_j lands on an even output index exactly when j < n/2), and the
// two tables must be mutually consistent in the sense that a DCT2
// round trip through both reconstructs the input.
func FuzzReorderTables(f *testing.F) {
	for _, seed := range []uint8{0, 1, 5, 10} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sizeExp uint8) {
		n := 1 << (int(sizeExp) % 11) // 1..1024
		r := NewReal(n)
		if n == 1 {
			return // degenerate: no tables
		}
		h := n / 2
		seen := make([]bool, n)
		for j, src := range r.fwdReorder {
			if src < 0 || src >= n || seen[src] {
				t.Fatalf("n=%d fwdReorder[%d]=%d is not a permutation", n, j, src)
			}
			seen[src] = true
			// Makhoul order: first half ascending evens, second half
			// descending odds.
			if j < h && src != 2*j {
				t.Fatalf("n=%d fwdReorder[%d]=%d, want %d", n, j, src, 2*j)
			}
			if j >= h && src != 2*(n-1-j)+1 {
				t.Fatalf("n=%d fwdReorder[%d]=%d, want %d", n, j, src, 2*(n-1-j)+1)
			}
		}
		seen = make([]bool, n)
		for j, dst := range r.invPos {
			if dst < 0 || dst >= n || seen[dst] {
				t.Fatalf("n=%d invPos[%d]=%d is not a permutation", n, j, dst)
			}
			seen[dst] = true
			if (dst%2 == 0) != (j < h) {
				t.Fatalf("n=%d invPos[%d]=%d breaks the parity split", n, j, dst)
			}
		}
		// Consistency: DCT2 through fwdReorder followed by IDCTPair
		// through invPos must reproduce the input under the standard
		// scaling, on both channels.
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		coef := make([]float64, n)
		r.DCT2(x, coef)
		for u := range coef {
			coef[u] *= 2 / float64(n)
		}
		coef[0] /= 2
		back := make([]float64, n)
		back2 := make([]float64, n)
		r.IDCTPair(coef, coef, back, back2)
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-8 || math.Abs(back2[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d round trip differs at %d: %v and %v vs %v", n, i, back[i], back2[i], x[i])
			}
		}
	})
}

// FuzzPackedTransforms cross-checks the packed fast transforms against
// the O(n^2) references on fuzzed inputs and sizes, covering DCT2's
// half-length FFT and the pairs' full-length FFT, and holds each pair
// to the same bits when its outputs alias its inputs.
func FuzzPackedTransforms(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(6))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(99), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, sizeExp uint8) {
		n := 1 << (int(sizeExp) % 9) // 1..256: naive reference is quadratic
		rng := rand.New(rand.NewSource(seed))
		r := NewReal(n)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		tol := 1e-9 * float64(n) * 10
		check := func(name string, got, want []float64) {
			t.Helper()
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("n=%d %s[%d] = %v, naive %v", n, name, i, got[i], want[i])
				}
			}
		}
		out := make([]float64, n)
		out2 := make([]float64, n)
		r.DCT2(a, out)
		check("DCT2", out, naiveDCT2(a))
		for _, pair := range []struct {
			name  string
			f     func(aA, aB, outA, outB []float64)
			naive func([]float64) []float64
		}{
			{"DCT2Pair", r.DCT2Pair, naiveDCT2},
			{"IDCTPair", r.IDCTPair, naiveIDCT},
			{"IDSTPair", r.IDSTPair, naiveIDST},
		} {
			pair.f(a, b, out, out2)
			check(pair.name+"/A", out, pair.naive(a))
			check(pair.name+"/B", out2, pair.naive(b))
			inA, inB := append([]float64(nil), a...), append([]float64(nil), b...)
			pair.f(inA, inB, inA, inB)
			for i := range inA {
				if inA[i] != out[i] || inB[i] != out2[i] {
					t.Fatalf("n=%d %s in place differs at %d", n, pair.name, i)
				}
			}
		}
	})
}
