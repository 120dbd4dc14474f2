//go:build !amd64

package fft

// Non-amd64 builds always take the scalar butterflies; the kernels
// below are never called.
const useAVX2 = false

func stage12AVX2(x *complex64, n int, mask *uint32) {
	panic("fft: AVX2 kernel called on non-amd64 build")
}

func stageGAVX2(x *complex64, n, half int, tw *complex64) {
	panic("fft: AVX2 kernel called on non-amd64 build")
}
