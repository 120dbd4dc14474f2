//go:build amd64

package fft

// useAVX2 selects the assembly butterfly kernels for float32 plans. It
// is probed once at startup and read when a plan is built; a process
// therefore runs exactly one float32 butterfly implementation for its
// whole lifetime, which keeps the float32 transforms bitwise
// deterministic (the vector and scalar kernels do not round alike, so
// mixing them mid-run would break digest stability).
var useAVX2 = hasAVX2asm()

// hasAVX2asm reports whether the CPU and OS support the AVX2 kernels.
// Implemented in fft32_amd64.s.
func hasAVX2asm() bool

// stage12AVX2 runs the fused size-2 and size-4 butterfly stages over a
// bit-reversed buffer of n complex64 values (n >= 8). mask points at
// the 16 sign words of stage12FwdMask or stage12InvMask.
//
//go:noescape
func stage12AVX2(x *complex64, n int, mask *uint32)

// stageGAVX2 runs one butterfly stage of size 2*half (half >= 4) with
// the stage's contiguous twiddle table.
//
//go:noescape
func stageGAVX2(x *complex64, n, half int, tw *complex64)
