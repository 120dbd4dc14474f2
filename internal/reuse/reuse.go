// Package reuse holds the one helper every placement workspace resizes
// its buffers with. A global-placement stage rebuilds its engine,
// optimizer, wirelength and density state by resetting values an
// earlier stage of the same placement used: each buffer keeps its
// capacity and takes the prefix the new stage needs.
package reuse

// Resize returns s with length n, reallocated (to exactly n) only when n
// exceeds its capacity. The contents are not kept on reallocation and
// not cleared otherwise: the caller rewrites every element, or clears
// the ones it accumulates into.
func Resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// Grow returns s with capacity for at least n elements, reallocated (to
// exactly n, contents not kept) only when it is short, at its full
// capacity: a workspace sizes its buffers for its largest use with it,
// and Resize then takes each use's prefix.
func Grow[T any](s []T, n int) []T { return Resize(s, max(n, cap(s))) }
