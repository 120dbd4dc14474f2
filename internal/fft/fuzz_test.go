package fft

import (
	"math"
	"math/rand"
	"slices"
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
		for j := range n {
			// fwdGather is the reorder composed with the bit-reversal,
			// an involution, so the reorder alone is this.
			src := r.fwdGather[r.full.rev[j]]
			if src < 0 || src >= n || seen[src] {
				t.Fatalf("n=%d reorder[%d]=%d is not a permutation", n, j, src)
			}
			seen[src] = true
			// Makhoul order: first half ascending evens, second half
			// descending odds.
			if j < h && src != 2*j {
				t.Fatalf("n=%d reorder[%d]=%d, want %d", n, j, src, 2*j)
			}
			if j >= h && src != 2*(n-1-j)+1 {
				t.Fatalf("n=%d reorder[%d]=%d, want %d", n, j, src, 2*(n-1-j)+1)
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
		// Consistency: DCT2 through the reorder followed by IDCTPair
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
// the O(n^2) references on fuzzed inputs and sizes in both precisions,
// covering DCT2's half-length FFT and the pairs' full-length FFT, and
// holds each pair to the same bits when its outputs alias its inputs.
func FuzzPackedTransforms(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(6))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(99), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, sizeExp uint8) {
		n := 1 << (int(sizeExp) % 9) // 1..256: naive reference is quadratic
		packedMatchNaive[float64](t, seed, n)
		packedMatchNaive[float32](t, seed, n)
	})
}

func packedMatchNaive[T float](t *testing.T, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	r := New[T](n)
	a, b := make([]T, n), make([]T, n)
	a64, b64 := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = T(rng.NormFloat64()*10), T(rng.NormFloat64()*10)
		a64[i], b64[i] = float64(a[i]), float64(b[i])
	}
	tol := relTol[T](n)
	check := func(name string, got []T, want []float64) {
		t.Helper()
		if e := maxRelErr(got, want); e > tol {
			t.Fatalf("n=%d %T %s rel err %g > %g", n, got, name, e, tol)
		}
	}
	out, out2 := make([]T, n), make([]T, n)
	r.DCT2(a, out)
	check("DCT2", out, naiveDCT2(a64))
	for _, pair := range []struct {
		name  string
		f     func(aA, aB, outA, outB []T)
		naive func([]float64) []float64
	}{
		{"DCT2Pair", r.DCT2Pair, naiveDCT2},
		{"IDCTPair", r.IDCTPair, naiveIDCT},
		{"IDSTPair", r.IDSTPair, naiveIDST},
	} {
		pair.f(a, b, out, out2)
		// The two channels are measured as one vector: they share one
		// FFT, so on fuzzed inputs of very different magnitude rounding
		// reaches the smaller channel at the larger one's scale.
		check(pair.name, slices.Concat(out, out2), slices.Concat(pair.naive(a64), pair.naive(b64)))
		inA, inB := append([]T(nil), a...), append([]T(nil), b...)
		pair.f(inA, inB, inA, inB)
		for i := range inA {
			if inA[i] != out[i] || inB[i] != out2[i] {
				t.Fatalf("n=%d %T %s in place differs at %d", n, inA, pair.name, i)
			}
		}
	}
}
