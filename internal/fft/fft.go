// Package fft implements the spectral transforms used by the Poisson
// solver: an iterative radix-2 complex FFT plus the real cosine/sine
// transforms (DCT-II and the cosine and sine reconstructions) that
// expand and reconstruct grids in the Neumann cosine basis
//
//	f(x) = sum_u a_u cos(w_u (x + 1/2)),  w_u = pi*u/n.
//
// The real transforms use Makhoul's packed formulation with
// quarter-sample shift twiddles: a single length-n DCT-II runs through
// one length-n/2 complex FFT of the even/odd-reordered input — about 4x
// fewer butterflies than the classical zero-padded length-2n embedding
// — and the *Pair methods carry two independent real vectors through
// one full length-n complex FFT, which is how the Poisson solver
// amortizes FFT work across its planes. The reconstructions exist only
// as pairs.
//
// Everything is written once, generic over the sample precision T
// (float32 or float64). The placer's Poisson pipeline runs float32;
// float64 is its precision guard's reference and the tests' oracle.
// Three choices shape the code:
//
//   - A complex sample is a cplx[T] with explicit real arithmetic. Go's
//     real/imag/complex builtins do not accept type parameters, and a
//     complex64 multiply is widened to float64 by the compiler anyway.
//
//   - Separate permutation passes are wasted traffic: the bit-reversal
//     is fused into the transforms' gather/scatter loops (fwdGather
//     composes Makhoul's reorder with the reversal; the inverse
//     spectrum builders scatter through rev), so the FFT kernel itself
//     is butterflies only.
//
//   - A float32 plan runs its butterfly stages in AVX2 assembly where
//     available (fft32_amd64.s, 4 butterflies per step); the portable
//     scalar stages are float64's only path and float32's fallback.
//
// All twiddle tables are computed in float64 and rounded once, so table
// error is a half-ulp of T; accumulated transform error stays within a
// few ulps per butterfly stage (pinned against the naive references in
// the tests). All transforms are unnormalized sums; callers apply
// scaling. Sizes must be powers of two, which the bin grid guarantees.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"unsafe"
)

// float is the sample precision of a transform, and the element types a
// pair transform can stage from or scatter to.
type float interface{ float32 | float64 }

// cplx is one complex sample. cplx[float32] has complex64's layout,
// which is what lets the AVX2 kernels take the buffer as is.
type cplx[T float] struct{ re, im T }

// plan holds per-stage twiddle tables and the bit-reversal permutation
// for complex FFTs of one size. Immutable after newPlan and shareable
// across goroutines operating on distinct buffers.
type plan[T float] struct {
	n    int
	logn int
	rev  []int
	// fwdSt[s]/invSt[s] hold the stage-(s+1) twiddles contiguously:
	// half = 1<<s butterfly factors exp(∓i*pi*k/half), k < half. The
	// contiguous per-stage layout is what lets the vector kernel stream
	// them instead of striding through one shared table.
	fwdSt, invSt [][]cplx[T]
	// vec selects the AVX2 kernels: float32 samples, n >= 8, and a CPU
	// that has them. Fixed at construction, so a plan runs one kernel
	// for its whole lifetime (the vector and scalar kernels round
	// differently, and mixing them mid-run would break determinism).
	vec bool
}

// newPlan creates a plan for complex FFTs of length n (a power of two).
func newPlan[T float](n int) *plan[T] {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &plan[T]{
		n:    n,
		logn: bits.TrailingZeros(uint(n)),
		vec:  useAVX2 && unsafe.Sizeof(T(0)) == 4 && n >= 8,
	}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	for s := 0; s < p.logn; s++ {
		half := 1 << s
		fwd := make([]cplx[T], half)
		inv := make([]cplx[T], half)
		for k := 0; k < half; k++ {
			w := cmplx.Exp(complex(0, -math.Pi*float64(k)/float64(half)))
			fwd[k] = cplx[T]{T(real(w)), T(imag(w))}
			inv[k] = cplx[T]{T(real(w)), T(-imag(w))}
		}
		p.fwdSt = append(p.fwdSt, fwd)
		p.invSt = append(p.invSt, inv)
	}
	return p
}

// butterflies runs the decimation-in-time stages on a buffer whose
// elements are already in bit-reversed order, producing the natural-
// order forward DFT X_k = sum_j x_j exp(-2*pi*i*j*k/n), or the
// unnormalized inverse (exp(+...), no 1/n) when inverse is set. Vector
// path: a fused radix-2x2 first pass (sizes 2 and 4 in one sweep) then
// 4-wide generic stages.
func (p *plan[T]) butterflies(x []cplx[T], inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d, plan size %d", len(x), p.n))
	}
	if p.n < 2 {
		return
	}
	st := p.fwdSt
	mask := &stage12FwdMask
	if inverse {
		st = p.invSt
		mask = &stage12InvMask
	}
	if p.vec {
		x64 := (*complex64)(unsafe.Pointer(&x[0]))
		stage12AVX2(x64, p.n, &mask[0])
		for s := 2; s < p.logn; s++ {
			stageGAVX2(x64, p.n, 1<<s, (*complex64)(unsafe.Pointer(&st[s][0])))
		}
		return
	}
	for s, tw := range st {
		half := 1 << s
		for start := 0; start < p.n; start += 2 * half {
			for k := 0; k < half; k++ {
				w := tw[k]
				b := x[start+k+half]
				tr := b.re*w.re - b.im*w.im
				ti := b.re*w.im + b.im*w.re
				a := x[start+k]
				x[start+k] = cplx[T]{a.re + tr, a.im + ti}
				x[start+k+half] = cplx[T]{a.re - tr, a.im - ti}
			}
		}
	}
}

// Real implements the real transforms on length-n vectors of precision
// T with Makhoul-style packing: DCT2 runs through one length-n/2
// complex FFT of the even/odd-reordered data, and the *Pair variants
// carry two real vectors through one full length-n complex FFT.
//
// Concurrency contract: a Real is NOT safe for concurrent use — every
// transform stages data through its scratch buffer. Create one per
// worker goroutine (the Poisson pipeline does exactly this);
// construction is cheap and instances share nothing mutable. All
// methods tolerate out aliasing the input: inputs are fully staged into
// scratch before any output element is written.
type Real[T float] struct {
	n, h int      // vector length and its half
	full *plan[T] // length-n plan for the pair transforms (nil when n == 1)
	half *plan[T] // length-n/2 plan for DCT2 (nil when n == 1)
	// scratch is the complex FFT buffer.
	scratch []cplx[T]
	// fwdGather composes Makhoul's reorder (makhoul) with the FFT's
	// bit-reversal: scratch[j] = in[fwdGather[j]] feeds the butterfly
	// stages directly.
	fwdGather []int
	// invPos is the inverse output scatter: reconstruction sample b_j of
	// the packed inverse lands at out[invPos[j]] (2j for j < h, else
	// 2n-2j-1). Positions with j < h are exactly the even out indices,
	// which is what lets IDSTPair fold its (-1)^i sign into the scatter.
	invPos []int
	// fwdTw[u] = exp(-i*pi*u/(2n)), the forward quarter-sample shift;
	// invTw is its conjugate, the inverse pair transforms' pre-twiddle.
	fwdTw, invTw []cplx[T]
	// packTw[u] = exp(-2*pi*i*u/n), u <= h: DCT2's even/odd
	// recombination twiddle of the half-length packing.
	packTw []cplx[T]
}

// New creates real-transform workspace of precision T for vectors of
// length n (a power of two).
func New[T float](n int) *Real[T] {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	r := &Real[T]{n: n, h: n / 2}
	if n == 1 {
		return r
	}
	r.full = newPlan[T](n)
	r.half = newPlan[T](n / 2)
	r.scratch = make([]cplx[T], n)
	r.fwdGather = make([]int, n)
	r.invPos = make([]int, n)
	r.fwdTw = make([]cplx[T], n)
	r.invTw = make([]cplx[T], n)
	for j := 0; j < n; j++ {
		r.fwdGather[j] = r.makhoul(r.full.rev[j])
		if j < r.h {
			r.invPos[j] = 2 * j
		} else {
			r.invPos[j] = 2*n - 2*j - 1
		}
		w := cmplx.Exp(complex(0, math.Pi*float64(j)/float64(2*n)))
		r.invTw[j] = cplx[T]{T(real(w)), T(imag(w))}
		r.fwdTw[j] = cplx[T]{T(real(w)), T(-imag(w))}
	}
	r.packTw = make([]cplx[T], r.h+1)
	for u := 0; u <= r.h; u++ {
		w := cmplx.Exp(complex(0, -2*math.Pi*float64(u)/float64(n)))
		r.packTw[u] = cplx[T]{T(real(w)), T(imag(w))}
	}
	return r
}

// NewReal creates float64 real-transform workspace for vectors of
// length n (a power of two).
func NewReal(n int) *Real[float64] { return New[float64](n) }

// makhoul is Makhoul's input permutation
// v = [x_0, x_2, ..., x_{n-2}, x_{n-1}, x_{n-3}, ..., x_1]: v[j] =
// x[makhoul(j)].
func (r *Real[T]) makhoul(j int) int {
	if j < r.h {
		return 2 * j
	}
	return 2*(r.n-1-j) + 1
}

// DCT2 computes the unnormalized forward DCT-II
//
//	out_u = sum_i x_i cos(pi*u*(2i+1)/(2n))
//
// via one length-n/2 complex FFT: the even/odd-reordered input v packs
// into n/2 complex samples, and out_u = Re(exp(-i*pi*u/(2n)) V_u) where
// V is the length-n DFT of v, recovered from the packed spectrum by the
// standard real-FFT split.
func (r *Real[T]) DCT2(x, out []T) {
	r.check(len(x), len(out))
	n, h := r.n, r.h
	if n == 1 {
		out[0] = x[0]
		return
	}
	z := r.scratch[:h]
	for j, t := range r.half.rev {
		z[j] = cplx[T]{x[r.makhoul(2*t)], x[r.makhoul(2*t+1)]}
	}
	r.half.butterflies(z, false)
	for u := 0; u <= h; u++ {
		zu, zc := z[u%h], z[(h-u)%h]
		er, ei := (zu.re+zc.re)/2, (zu.im-zc.im)/2 // e = (zu + conj(zc))/2
		dr, di := (zu.re-zc.re)/2, (zu.im+zc.im)/2 // d = (zu - conj(zc))/2
		p := r.packTw[u]                           // e + p*(-i*d)
		vr, vi := er+p.re*di+p.im*dr, ei+p.im*di-p.re*dr
		w := r.fwdTw[u]
		out[u] = w.re*vr - w.im*vi
		if u >= 1 && u < h {
			out[n-u] = -(w.re*vi + w.im*vr)
		}
	}
}

// DCT2Pair computes the DCT-II of two independent vectors with one full
// length-n complex FFT, packing xA into the real and xB into the
// imaginary channel. Either output may alias its input.
func (r *Real[T]) DCT2Pair(xA, xB, outA, outB []T) { dct2Pair(r, xA, xB, outA, outB) }

// DCT2PairFrom64 is DCT2Pair staging from float64 inputs: the rounding
// to T rides the reorder gather.
func (r *Real[T]) DCT2PairFrom64(xA, xB []float64, outA, outB []T) {
	dct2Pair(r, xA, xB, outA, outB)
}

// IDCTPair computes the cosine reconstructions (full-weight a_0) of two
// independent coefficient vectors with one full length-n complex FFT.
// Either output may alias its input.
func (r *Real[T]) IDCTPair(aA, aB, outA, outB []T) { invPair(r, false, aA, aB, outA, outB) }

// IDCTPairTo64 is IDCTPair scattering to float64 outputs: the widening
// rides the inverse output scatter.
func (r *Real[T]) IDCTPairTo64(aA, aB []T, outA, outB []float64) {
	invPair(r, false, aA, aB, outA, outB)
}

// IDSTPair computes the sine reconstructions of two independent
// coefficient vectors with one full length-n complex FFT. Either output
// may alias its input.
func (r *Real[T]) IDSTPair(aA, aB, outA, outB []T) { invPair(r, true, aA, aB, outA, outB) }

// IDSTPairTo64 is IDSTPair scattering to float64 outputs.
func (r *Real[T]) IDSTPairTo64(aA, aB []T, outA, outB []float64) {
	invPair(r, true, aA, aB, outA, outB)
}

func dct2Pair[T, In, Out float](r *Real[T], xA, xB []In, outA, outB []Out) {
	r.check(len(xA), len(outA))
	r.check(len(xB), len(outB))
	n := r.n
	if n == 1 {
		outA[0], outB[0] = Out(T(xA[0])), Out(T(xB[0]))
		return
	}
	// Gather in reorder-then-bit-reversed order: the FFT is butterflies
	// only.
	for j, src := range r.fwdGather {
		r.scratch[j] = cplx[T]{T(xA[src]), T(xB[src])}
	}
	r.full.butterflies(r.scratch, false)
	// Unpack the two interleaved real spectra and apply the
	// quarter-sample shift.
	for u := 0; u < n; u++ {
		zu, zc := r.scratch[u], r.scratch[(n-u)%n]
		sr, si := zu.re+zc.re, zu.im-zc.im // zu + conj(zc)
		dr, di := zu.re-zc.re, zu.im+zc.im // zu - conj(zc)
		w := r.fwdTw[u]
		outA[u] = Out((w.re*sr - w.im*si) * 0.5)
		outB[u] = Out((w.re*di + w.im*dr) * 0.5)
	}
}

// invPair runs the cosine (sine false) or sine (sine true)
// reconstruction of a pair. The packed spectrum t_u = a_u - i*a_{n-u}
// (halved; coefficients reversed for the sine), rotated by the inverse
// quarter-sample shift, is scattered through the bit-reversal so the
// inverse FFT is butterflies only.
func invPair[T, In, Out float](r *Real[T], sine bool, aA, aB []In, outA, outB []Out) {
	r.check(len(aA), len(outA))
	r.check(len(aB), len(outB))
	n, h := r.n, r.h
	if n == 1 {
		if sine {
			outA[0], outB[0] = 0, 0
		} else {
			outA[0], outB[0] = Out(T(aA[0])), Out(T(aB[0]))
		}
		return
	}
	if sine {
		r.scratch[0] = cplx[T]{}
	} else {
		r.scratch[0] = cplx[T]{T(aA[0]), T(aB[0])}
	}
	for u := 1; u < n; u++ {
		iu, inu := u, n-u
		if sine {
			iu, inu = inu, iu
		}
		aur, aui := T(aA[iu])*0.5, T(aB[iu])*0.5
		anr, ani := T(aA[inu])*0.5, T(aB[inu])*0.5
		tr, ti := aur+ani, aui-anr
		w := r.invTw[u]
		r.scratch[r.full.rev[u]] = cplx[T]{w.re*tr - w.im*ti, w.re*ti + w.im*tr}
	}
	r.full.butterflies(r.scratch, true)
	for j, z := range r.scratch {
		p := r.invPos[j]
		if sine && j >= h {
			z = cplx[T]{-z.re, -z.im}
		}
		outA[p], outB[p] = Out(z.re), Out(z.im)
	}
}

func (r *Real[T]) check(in, out int) {
	if in != r.n || out != r.n {
		panic(fmt.Sprintf("fft: vector length %d/%d, workspace size %d", in, out, r.n))
	}
}

const signBit32 = 0x80000000

// stage12FwdMask drives the fused first two stages in the vector
// kernel: the first 8 words negate the stage-1 odd qwords, the second 8
// apply the stage-2 factor w = -i (forward) to the d term and the
// lower-half subtraction. See fft32_amd64.s for the lane derivation.
var stage12FwdMask = [16]uint32{
	0, 0, signBit32, signBit32, 0, 0, signBit32, signBit32,
	0, 0, 0, signBit32, signBit32, signBit32, signBit32, 0,
}

// stage12InvMask is the inverse twin (w = +i).
var stage12InvMask = [16]uint32{
	0, 0, signBit32, signBit32, 0, 0, signBit32, signBit32,
	0, 0, signBit32, 0, signBit32, signBit32, 0, signBit32,
}
