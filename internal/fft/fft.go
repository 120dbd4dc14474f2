// Package fft implements the spectral transforms used by the Poisson
// solver: an iterative radix-2 complex FFT plus the real cosine/sine
// transforms (DCT-II and the cosine and sine reconstructions) that
// expand and reconstruct grids in the Neumann cosine basis
//
//	f(x) = sum_u a_u cos(w_u (x + 1/2)),  w_u = pi*u/n.
//
// The real transforms use Makhoul's packed formulation, with a
// precomputed reorder table and quarter-sample shift twiddles: a single
// length-n DCT-II runs through one length-n/2 complex FFT of the
// even/odd-reordered input — about 4x fewer butterflies than the
// classical zero-padded length-2n embedding — and the *Pair methods
// carry two independent real vectors through one full length-n complex
// FFT, which is how the Poisson solver amortizes FFT work across its
// planes. The reconstructions exist only as pairs.
//
// All transforms are unnormalized sums; callers apply scaling. Sizes
// must be powers of two, which the bin grid guarantees.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// plan holds precomputed twiddle factors and the bit-reversal
// permutation for complex FFTs of one size.
//
// Concurrency contract: a plan is immutable after newPlan — forward and
// inverse only read the plan and mutate the caller's buffer in place —
// so one plan may be shared by any number of goroutines as long as each
// call operates on a distinct buffer. This differs from Real below,
// which owns mutable scratch and is single-goroutine-only.
type plan struct {
	n       int
	logn    int
	rev     []int
	twiddle []complex128 // twiddle[k] = exp(-2*pi*i*k/n), k < n/2
}

// newPlan creates a plan for complex FFTs of length n (a power of two).
func newPlan(n int) *plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &plan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.twiddle = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = cmplx.Exp(complex(0, ang))
	}
	return p
}

// forward computes the in-place forward DFT
//
//	X_k = sum_j x_j exp(-2*pi*i*j*k/n).
func (p *plan) forward(x []complex128) { p.transform(x, false) }

// inverse computes the in-place unnormalized inverse DFT
//
//	x_j = sum_k X_k exp(+2*pi*i*j*k/n)
//
// (no 1/n factor; callers scale as needed).
func (p *plan) inverse(x []complex128) { p.transform(x, true) }

func (p *plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d, plan size %d", len(x), p.n))
	}
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				ti += step
			}
		}
	}
}

// Real implements the real transforms on length-n vectors with
// Makhoul-style packing: DCT2 runs through one length-n/2 complex FFT of
// the even/odd-reordered data, and the *Pair variants carry two real
// vectors through one full length-n complex FFT.
//
// Concurrency contract: a Real is NOT safe for concurrent use — every
// transform stages data through the internal scratch buffer and reads the shared reorder/twiddle tables, unlike plan
// whose calls are independent. Create one Real per worker goroutine
// (the poisson.Solver pool does exactly this); construction is cheap
// and instances share nothing mutable. All methods tolerate out
// aliasing the input: inputs are fully staged into scratch before any
// output element is written.
type Real struct {
	n, h int   // vector length and its half
	full *plan // length-n plan for the pair transforms (nil when n == 1)
	half *plan // length-n/2 plan for DCT2 (nil when n == 1)
	// scratch is the complex FFT buffer.
	scratch []complex128
	// fwdReorder is Makhoul's input permutation
	// v = [x_0, x_2, ..., x_{n-2}, x_{n-1}, x_{n-3}, ..., x_1]:
	// v[j] = x[fwdReorder[j]].
	fwdReorder []int
	// invPos is the inverse output scatter: reconstruction sample b_j of
	// the packed inverse lands at out[invPos[j]] (2j for j < h, else
	// 2n-2j-1). Positions with j < h are exactly the even out indices,
	// which is what lets IDSTPair fold its (-1)^i sign into the scatter.
	invPos []int
	// fwdTw[u] = exp(-i*pi*u/(2n)), the forward quarter-sample shift;
	// invTw is its conjugate, the inverse pair transforms' pre-twiddle.
	fwdTw, invTw []complex128
	// packTw[u] = exp(-2*pi*i*u/n), u <= h: DCT2's even/odd
	// recombination twiddle of the half-length packing.
	packTw []complex128
}

// NewReal creates real-transform workspace for vectors of length n
// (a power of two).
func NewReal(n int) *Real {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	r := &Real{n: n, h: n / 2}
	if n == 1 {
		return r
	}
	r.full = newPlan(n)
	r.half = newPlan(n / 2)
	r.scratch = make([]complex128, n)
	r.fwdReorder = make([]int, n)
	for j := 0; j < r.h; j++ {
		r.fwdReorder[j] = 2 * j
		r.fwdReorder[n-1-j] = 2*j + 1
	}
	r.invPos = make([]int, n)
	for j := 0; j < n; j++ {
		if j < r.h {
			r.invPos[j] = 2 * j
		} else {
			r.invPos[j] = 2*n - 2*j - 1
		}
	}
	r.fwdTw = make([]complex128, n)
	r.invTw = make([]complex128, n)
	for u := 0; u < n; u++ {
		ang := math.Pi * float64(u) / float64(2*n)
		r.invTw[u] = cmplx.Exp(complex(0, ang))
		r.fwdTw[u] = complex(real(r.invTw[u]), -imag(r.invTw[u]))
	}
	r.packTw = make([]complex128, r.h+1)
	for u := 0; u <= r.h; u++ {
		ang := -2 * math.Pi * float64(u) / float64(n)
		r.packTw[u] = cmplx.Exp(complex(0, ang))
	}
	return r
}

// DCT2 computes the unnormalized forward DCT-II
//
//	out_u = sum_i x_i cos(pi*u*(2i+1)/(2n))
//
// via one length-n/2 complex FFT: the even/odd-reordered input v packs
// into n/2 complex samples, and out_u = Re(exp(-i*pi*u/(2n)) V_u) where
// V is the length-n DFT of v, recovered from the packed spectrum by the
// standard real-FFT split.
func (r *Real) DCT2(x, out []float64) {
	r.check(x, out)
	n, h := r.n, r.h
	if n == 1 {
		out[0] = x[0]
		return
	}
	for t := 0; t < h; t++ {
		r.scratch[t] = complex(x[r.fwdReorder[2*t]], x[r.fwdReorder[2*t+1]])
	}
	r.half.forward(r.scratch[:h])
	for u := 0; u <= h; u++ {
		zu := r.scratch[u%h]
		zc := r.scratch[(h-u)%h]
		zc = complex(real(zc), -imag(zc))
		e := (zu + zc) / 2
		d := (zu - zc) / 2
		o := complex(imag(d), -real(d)) // -i * d
		t := r.fwdTw[u] * (e + r.packTw[u]*o)
		out[u] = real(t)
		if u >= 1 && u < h {
			out[n-u] = -imag(t)
		}
	}
}

// DCT2Pair computes the DCT-II of two independent vectors with one full
// length-n complex FFT, packing xA into the real and xB into the
// imaginary channel. Either output may alias its input.
func (r *Real) DCT2Pair(xA, xB, outA, outB []float64) {
	r.check(xA, outA)
	r.check(xB, outB)
	n := r.n
	if n == 1 {
		outA[0], outB[0] = xA[0], xB[0]
		return
	}
	for j := 0; j < n; j++ {
		src := r.fwdReorder[j]
		r.scratch[j] = complex(xA[src], xB[src])
	}
	r.full.forward(r.scratch)
	for u := 0; u < n; u++ {
		zu := r.scratch[u]
		zc := r.scratch[(n-u)%n]
		zc = complex(real(zc), -imag(zc))
		w := r.fwdTw[u]
		ta := w * (zu + zc)
		tb := w * (zu - zc)
		outA[u] = real(ta) / 2
		outB[u] = imag(tb) / 2
	}
}

// IDCTPair computes the cosine reconstructions of two independent
// coefficient vectors with one full length-n complex FFT. Either output
// may alias its input.
func (r *Real) IDCTPair(aA, aB, outA, outB []float64) {
	r.check(aA, outA)
	r.check(aB, outB)
	n := r.n
	if n == 1 {
		outA[0], outB[0] = aA[0], aB[0]
		return
	}
	r.scratch[0] = complex(aA[0], aB[0])
	for u := 1; u < n; u++ {
		au := complex(aA[u]/2, aB[u]/2)
		anu := complex(aA[n-u]/2, aB[n-u]/2)
		r.scratch[u] = r.invTw[u] * (au - 1i*anu)
	}
	r.full.inverse(r.scratch)
	for j := 0; j < n; j++ {
		z := r.scratch[j]
		p := r.invPos[j]
		outA[p] = real(z)
		outB[p] = imag(z)
	}
}

// IDSTPair computes the sine reconstructions of two independent
// coefficient vectors with one full length-n complex FFT. Either output
// may alias its input.
func (r *Real) IDSTPair(aA, aB, outA, outB []float64) {
	r.check(aA, outA)
	r.check(aB, outB)
	n, h := r.n, r.h
	if n == 1 {
		outA[0], outB[0] = 0, 0
		return
	}
	r.scratch[0] = 0
	for u := 1; u < n; u++ {
		au := complex(aA[n-u]/2, aB[n-u]/2)
		anu := complex(aA[u]/2, aB[u]/2)
		r.scratch[u] = r.invTw[u] * (au - 1i*anu)
	}
	r.full.inverse(r.scratch)
	for j := 0; j < n; j++ {
		z := r.scratch[j]
		p := r.invPos[j]
		if j < h {
			outA[p] = real(z)
			outB[p] = imag(z)
		} else {
			outA[p] = -real(z)
			outB[p] = -imag(z)
		}
	}
}

// DCT2PairFrom64, IDCTPairTo64 and IDSTPairTo64 are the plain pair
// transforms under Real32's staging names, so one spectral pipeline runs
// on either precision: for float64 input and output there is nothing to
// narrow or widen.
func (r *Real) DCT2PairFrom64(xA, xB, outA, outB []float64) { r.DCT2Pair(xA, xB, outA, outB) }
func (r *Real) IDCTPairTo64(aA, aB, outA, outB []float64)   { r.IDCTPair(aA, aB, outA, outB) }
func (r *Real) IDSTPairTo64(aA, aB, outA, outB []float64)   { r.IDSTPair(aA, aB, outA, outB) }

func (r *Real) check(in, out []float64) {
	if len(in) != r.n || len(out) != r.n {
		panic(fmt.Sprintf("fft: vector length %d/%d, workspace size %d", len(in), len(out), r.n))
	}
}
