// AVX2 butterfly kernels for the float32 FFT (plan32). The buffers are
// []complex64 viewed as interleaved float32 re/im pairs; one YMM
// register holds 4 complex values. Written directly in assembly because
// the Go compiler widens complex64 arithmetic to float64, and the
// scalar float32 decomposition it would take to avoid that does not
// auto-vectorize.
//
// Lane conventions: a complex64 occupies one qword; "even/odd float
// lanes" of a qword are (re, im).

#include "textflag.h"

// func hasAVX2asm() bool
//
// CPUID feature probe: OSXSAVE+AVX (leaf 1 ECX bits 27,28), OS YMM
// state enabled (XCR0 bits 1,2), and AVX2 (leaf 7 EBX bit 5).
TEXT ·hasAVX2asm(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	MOVL	CX, DX
	SHRL	$27, DX
	ANDL	$3, DX
	CMPL	DX, $3
	JNE	no
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	no
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	SHRL	$5, BX
	ANDL	$1, BX
	MOVB	BX, ret+0(FP)
	RET
no:
	MOVB	$0, ret+0(FP)
	RET

// func stage12AVX2(x *complex64, n int, mask *uint32)
//
// Fused first two DIT stages (butterfly sizes 2 and 4) over a
// bit-reversed buffer: each block of 4 complex values [x0 x1 x2 x3] is
// one YMM register and is carried through both stages in registers.
//
// Stage 1:  a=x0+x1  b=x0-x1  c=x2+x3  d=x2-x3
// Stage 2:  y0=a+c  y1=b+w1*d  y2=a-c  y3=b-w1*d,  w1 = -i fwd / +i inv
//
// mask points at 16 uint32s: the first 8 (M1) give stage 1 its qword
// sign pattern (negate floats of qwords 1,3 so one VADDPS computes
// both +/- halves); the second 8 (M2) fold w1 and the stage-2 signs
// into one XOR after an in-qword re/im swap of the d term.
TEXT ·stage12AVX2(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), DI
	MOVQ	n+8(FP), SI
	MOVQ	mask+16(FP), DX
	VMOVUPS	(DX), Y14
	VMOVUPS	32(DX), Y15
	SHLQ	$3, SI
	XORQ	AX, AX
loop:
	VMOVUPS	(DI)(AX*1), Y0
	VPERMPD	$0xA0, Y0, Y1       // [x0 x0 x2 x2]
	VPERMPD	$0xF5, Y0, Y2       // [x1 x1 x3 x3]
	VXORPS	Y14, Y2, Y2         // [x1 -x1 x3 -x3]
	VADDPS	Y2, Y1, Y3          // t = [a b c d]
	VPERM2F128 $0x00, Y3, Y3, Y4 // [a b a b]
	VPERM2F128 $0x11, Y3, Y3, Y5 // [c d c d]
	VPERMILPS $0xB4, Y5, Y5     // swap re/im of the d qwords
	VXORPS	Y15, Y5, Y5         // [c  w1*d  -c  -w1*d]
	VADDPS	Y5, Y4, Y6          // [y0 y1 y2 y3]
	VMOVUPS	Y6, (DI)(AX*1)
	ADDQ	$32, AX
	CMPQ	AX, SI
	JLT	loop
	VZEROUPPER
	RET

// func stageGAVX2(x *complex64, n, half int, tw *complex64)
//
// One generic DIT stage of butterfly size 2*half (half >= 4, a
// multiple of 4): for every block and every k, with t = w_k * v,
//   u' = u + t,  v' = u - t.
// The complex multiply is the usual moveldup/movehdup/addsubps
// pattern, 4 butterflies per iteration; tw is this stage's contiguous
// twiddle table.
TEXT ·stageGAVX2(SB), NOSPLIT, $0-32
	MOVQ	x+0(FP), DI
	MOVQ	n+8(FP), SI
	MOVQ	half+16(FP), CX
	MOVQ	tw+24(FP), DX
	SHLQ	$3, CX              // half in bytes
	MOVQ	CX, R8
	SHLQ	$1, R8              // block size in bytes
	SHLQ	$3, SI              // buffer size in bytes
	XORQ	R9, R9              // block start offset
outer:
	LEAQ	(DI)(R9*1), R10     // &x[start]
	LEAQ	(R10)(CX*1), R11    // &x[start+half]
	XORQ	AX, AX              // k offset in bytes
inner:
	VMOVUPS	(R10)(AX*1), Y0     // u
	VMOVUPS	(R11)(AX*1), Y1     // v
	VMOVUPS	(DX)(AX*1), Y2      // w
	VMOVSLDUP Y2, Y3            // [wr wr]
	VMOVSHDUP Y2, Y4            // [wi wi]
	VPERMILPS $0xB1, Y1, Y5     // [vi vr]
	VMULPS	Y3, Y1, Y6          // [vr*wr vi*wr]
	VMULPS	Y4, Y5, Y7          // [vi*wi vr*wi]
	VADDSUBPS Y7, Y6, Y8        // t = [vr*wr-vi*wi  vi*wr+vr*wi]
	VADDPS	Y8, Y0, Y9          // u + t
	VSUBPS	Y8, Y0, Y10         // u - t
	VMOVUPS	Y9, (R10)(AX*1)
	VMOVUPS	Y10, (R11)(AX*1)
	ADDQ	$32, AX
	CMPQ	AX, CX
	JLT	inner
	ADDQ	R8, R9
	CMPQ	R9, SI
	JLT	outer
	VZEROUPPER
	RET
