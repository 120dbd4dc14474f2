// fft32.go implements the float32 twins of the packed real transforms:
// the same Makhoul pair-packing as Real, carried in complex64 buffers
// over float32 tables. Halving the element size halves the memory
// traffic of every cache-blocked pass in the Poisson pipeline, and the
// narrower lanes double the butterfly throughput of the vectorized
// stages (fft32_amd64.s).
//
// Two pitfalls shape this file:
//
//   - complex64 ARITHMETIC is poison: the Go compiler widens every
//     complex64 multiply to float64 (CVTSS2SD per operand), making it
//     slower than complex128. complex64 appears here only as a storage
//     layout (interleaved float32 pairs); every multiply is written as
//     explicit float32 real/imag arithmetic, and the butterfly stages
//     run in AVX2 assembly where available (4 butterflies per step)
//     with a pure-float32 scalar fallback.
//
//   - separate permutation passes are wasted traffic: the classic
//     bit-reversal swap is fused into the transforms' existing
//     gather/scatter loops (fwdGather composes Makhoul's reorder with
//     the reversal; the inverse spectrum builders scatter through rev),
//     so the FFT kernel itself is butterflies only.
//
// Only the *Pair variants exist: the float32 Poisson pipeline
// (poisson.Solver32) pairs two rows into every FFT in all five of its
// passes, so the half-packed single transforms would be dead code. The
// *From64/*To64 variants fuse the float64<->float32 precision
// conversion into the same gather/scatter loops, so a float32 solve
// reads float64 charge and writes float64 field planes without any
// separate conversion pass.
//
// All twiddle tables are computed in float64 and rounded once, so table
// error is a half-ulp of float32; accumulated transform error stays
// within a few ulps per butterfly stage (pinned against the float64
// naive references in fft32_test.go).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// plan32 holds per-stage twiddle tables and the bit-reversal
// permutation for complex64 FFTs of one size. Immutable after
// newPlan32 and shareable across goroutines operating on distinct
// buffers.
type plan32 struct {
	n    int
	logn int
	rev  []int
	// fwdSt[s]/invSt[s] hold the stage-(s+1) twiddles contiguously:
	// half = 1<<s butterfly factors exp(∓i*pi*k/half), k < half. The
	// contiguous per-stage layout is what lets the vector kernel stream
	// them instead of striding through one shared table.
	fwdSt, invSt [][]complex64
}

// newPlan32 creates a plan for complex64 FFTs of length n (a power of
// two).
func newPlan32(n int) *plan32 {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &plan32{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	for s := 0; s < p.logn; s++ {
		half := 1 << s
		fwd := make([]complex64, half)
		inv := make([]complex64, half)
		for k := 0; k < half; k++ {
			ang := -math.Pi * float64(k) / float64(half)
			w := cmplx.Exp(complex(0, ang))
			fwd[k] = complex64(w)
			inv[k] = complex64(complex(real(w), -imag(w)))
		}
		p.fwdSt = append(p.fwdSt, fwd)
		p.invSt = append(p.invSt, inv)
	}
	return p
}

// forward computes the in-place forward DFT in complex64 on
// natural-order input.
func (p *plan32) forward(x []complex64) {
	p.check(x)
	p.swap(x)
	p.butterflies(x, false)
}

// inverse computes the in-place unnormalized inverse DFT in complex64
// on natural-order input.
func (p *plan32) inverse(x []complex64) {
	p.check(x)
	p.swap(x)
	p.butterflies(x, true)
}

func (p *plan32) check(x []complex64) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d, plan size %d", len(x), p.n))
	}
}

// swap applies the bit-reversal permutation. The pair transforms below
// never call it: they build the buffer bit-reversed in their
// gather/scatter loops and go straight to butterflies.
func (p *plan32) swap(x []complex64) {
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs the decimation-in-time stages on a buffer whose
// elements are already in bit-reversed order, producing natural-order
// output. Vector path: a fused radix-2x2 first pass (sizes 2 and 4 in
// one sweep) then 4-wide generic stages; the scalar fallback covers
// n < 8, non-amd64 builds, and pre-AVX2 hardware.
func (p *plan32) butterflies(x []complex64, inverse bool) {
	if p.n < 2 {
		return
	}
	st := p.fwdSt
	mask := &stage12FwdMask
	if inverse {
		st = p.invSt
		mask = &stage12InvMask
	}
	if useAVX2 && p.n >= 8 {
		stage12AVX2(&x[0], p.n, &mask[0])
		for s := 2; s < p.logn; s++ {
			stageGAVX2(&x[0], p.n, 1<<s, &st[s][0])
		}
		return
	}
	p.scalarStages(x, st)
}

// scalarStages is the portable butterfly kernel: identical math to the
// vector path, written as explicit float32 real/imag arithmetic (a
// complex64 multiply would be silently widened to float64 — see the
// file comment).
func (p *plan32) scalarStages(x []complex64, st [][]complex64) {
	n := p.n
	for s, tw := range st {
		half := 1 << s
		size := half * 2
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k]
				wr, wi := real(w), imag(w)
				b := x[start+k+half]
				br, bi := real(b), imag(b)
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				a := x[start+k]
				ar, ai := real(a), imag(a)
				x[start+k] = complex(ar+tr, ai+ti)
				x[start+k+half] = complex(ar-tr, ai-ti)
			}
		}
	}
}

// Real32 is the float32 twin of Real for the pair-packed transforms.
// Same concurrency contract: NOT safe for concurrent use (shared
// scratch); create one per worker goroutine. All methods tolerate out
// aliasing the input.
type Real32 struct {
	n, h    int
	full    *plan32
	scratch []complex64
	// fwdGather composes Makhoul's even/odd reorder with the FFT's
	// bit-reversal: scratch[j] = in[fwdGather[j]] feeds the butterfly
	// stages directly, with no separate permutation pass.
	fwdGather []int
	// rev is the plan's bit-reversal, used by the inverse builders to
	// scatter the spectrum straight into butterfly order.
	rev []int
	// invPos is the inverse output scatter (2j for j < h, else 2n-2j-1),
	// identical to Real's.
	invPos []int
	// fwdTw[u] = exp(-i*pi*u/(2n)); invTw its conjugate.
	fwdTw, invTw []complex64
}

// NewReal32 creates float32 pair-transform workspace for vectors of
// length n (a power of two).
func NewReal32(n int) *Real32 {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	r := &Real32{n: n, h: n / 2}
	if n == 1 {
		return r
	}
	r.full = newPlan32(n)
	r.rev = r.full.rev
	r.scratch = make([]complex64, n)
	fwdReorder := make([]int, n)
	for j := 0; j < r.h; j++ {
		fwdReorder[j] = 2 * j
		fwdReorder[n-1-j] = 2*j + 1
	}
	r.fwdGather = make([]int, n)
	for j := 0; j < n; j++ {
		r.fwdGather[j] = fwdReorder[r.rev[j]]
	}
	r.invPos = make([]int, n)
	for j := 0; j < n; j++ {
		if j < r.h {
			r.invPos[j] = 2 * j
		} else {
			r.invPos[j] = 2*n - 2*j - 1
		}
	}
	r.fwdTw = make([]complex64, n)
	r.invTw = make([]complex64, n)
	for u := 0; u < n; u++ {
		ang := math.Pi * float64(u) / float64(2*n)
		w := cmplx.Exp(complex(0, ang))
		r.invTw[u] = complex64(w)
		r.fwdTw[u] = complex64(complex(real(w), -imag(w)))
	}
	return r
}

// f32or64 admits the two precisions a pair transform can stage from or
// scatter to; conversion happens element-wise inside the existing
// gather/scatter loops, never as a separate pass.
type f32or64 interface{ ~float32 | ~float64 }

// DCT2Pair computes the unnormalized DCT-II of two independent float32
// vectors with one full length-n complex64 FFT (same math as
// Real.DCT2Pair). Either output may alias its input.
func (r *Real32) DCT2Pair(xA, xB, outA, outB []float32) {
	dct2Pair32(r, xA, xB, outA, outB)
}

// DCT2PairFrom64 is DCT2Pair staging from float64 inputs: the
// float64->float32 rounding rides the reorder gather.
func (r *Real32) DCT2PairFrom64(xA, xB []float64, outA, outB []float32) {
	dct2Pair32(r, xA, xB, outA, outB)
}

// IDCTPair computes the cosine reconstructions of two independent
// float32 coefficient vectors (same math as Real.IDCTPair, full-weight
// a_0). Either output may alias its input.
func (r *Real32) IDCTPair(aA, aB, outA, outB []float32) {
	idctPair32(r, aA, aB, outA, outB)
}

// IDCTPairTo64 is IDCTPair scattering to float64 outputs: the widening
// rides the inverse output scatter.
func (r *Real32) IDCTPairTo64(aA, aB []float32, outA, outB []float64) {
	idctPair32(r, aA, aB, outA, outB)
}

// IDSTPair computes the sine reconstructions of two independent
// float32 coefficient vectors (same math as Real.IDSTPair). Either
// output may alias its input.
func (r *Real32) IDSTPair(aA, aB, outA, outB []float32) {
	idstPair32(r, aA, aB, outA, outB)
}

// IDSTPairTo64 is IDSTPair scattering to float64 outputs.
func (r *Real32) IDSTPairTo64(aA, aB []float32, outA, outB []float64) {
	idstPair32(r, aA, aB, outA, outB)
}

func dct2Pair32[In, Out f32or64](r *Real32, xA, xB []In, outA, outB []Out) {
	check32(r, len(xA), len(outA))
	check32(r, len(xB), len(outB))
	n := r.n
	if n == 1 {
		outA[0], outB[0] = Out(xA[0]), Out(xB[0])
		return
	}
	// Gather in reorder-then-bit-reversed order: the FFT is butterflies
	// only.
	for j := 0; j < n; j++ {
		src := r.fwdGather[j]
		r.scratch[j] = complex(float32(xA[src]), float32(xB[src]))
	}
	r.full.butterflies(r.scratch, false)
	// Unpack the two interleaved real spectra and apply the
	// quarter-sample shift, in explicit float32 arithmetic.
	for u := 0; u < n; u++ {
		zu := r.scratch[u]
		zc := r.scratch[(n-u)%n]
		zur, zui := real(zu), imag(zu)
		zcr, zci := real(zc), imag(zc)
		w := r.fwdTw[u]
		wr, wi := real(w), imag(w)
		sr, si := zur+zcr, zui-zci // zu + conj(zc)
		dr, di := zur-zcr, zui+zci // zu - conj(zc)
		outA[u] = Out((wr*sr - wi*si) * 0.5)
		outB[u] = Out((wr*di + wi*dr) * 0.5)
	}
}

func idctPair32[In, Out f32or64](r *Real32, aA, aB []In, outA, outB []Out) {
	check32(r, len(aA), len(outA))
	check32(r, len(aB), len(outB))
	n := r.n
	if n == 1 {
		outA[0], outB[0] = Out(aA[0]), Out(aB[0])
		return
	}
	// Build the packed spectrum scattered through the bit-reversal, so
	// the inverse FFT is butterflies only. t = a_u - i*a_{n-u} (halved),
	// rotated by the inverse quarter-sample shift.
	r.scratch[r.rev[0]] = complex(float32(aA[0]), float32(aB[0]))
	for u := 1; u < n; u++ {
		aur, aui := float32(aA[u])*0.5, float32(aB[u])*0.5
		anr, ani := float32(aA[n-u])*0.5, float32(aB[n-u])*0.5
		tr, ti := aur+ani, aui-anr
		w := r.invTw[u]
		wr, wi := real(w), imag(w)
		r.scratch[r.rev[u]] = complex(wr*tr-wi*ti, wr*ti+wi*tr)
	}
	r.full.butterflies(r.scratch, true)
	for j := 0; j < n; j++ {
		z := r.scratch[j]
		p := r.invPos[j]
		outA[p] = Out(real(z))
		outB[p] = Out(imag(z))
	}
}

func idstPair32[In, Out f32or64](r *Real32, aA, aB []In, outA, outB []Out) {
	check32(r, len(aA), len(outA))
	check32(r, len(aB), len(outB))
	n, h := r.n, r.h
	if n == 1 {
		outA[0], outB[0] = 0, 0
		return
	}
	// Same spectrum builder as idctPair32 with the coefficients reversed
	// (sine reconstruction), scattered through the bit-reversal.
	r.scratch[r.rev[0]] = 0
	for u := 1; u < n; u++ {
		aur, aui := float32(aA[n-u])*0.5, float32(aB[n-u])*0.5
		anr, ani := float32(aA[u])*0.5, float32(aB[u])*0.5
		tr, ti := aur+ani, aui-anr
		w := r.invTw[u]
		wr, wi := real(w), imag(w)
		r.scratch[r.rev[u]] = complex(wr*tr-wi*ti, wr*ti+wi*tr)
	}
	r.full.butterflies(r.scratch, true)
	for j := 0; j < n; j++ {
		z := r.scratch[j]
		p := r.invPos[j]
		if j < h {
			outA[p] = Out(real(z))
			outB[p] = Out(imag(z))
		} else {
			outA[p] = Out(-real(z))
			outB[p] = Out(-imag(z))
		}
	}
}

func check32(r *Real32, in, out int) {
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
