package core

import (
	"math"
	"testing"

	"eplace/internal/synth"
)

// TestPlaceGlobalWorkersDeterminism runs the same mGP problem at
// several worker counts and asserts bitwise-identical results: the
// parallel gradient pipeline must not change a single ULP of the
// optimization trajectory.
func TestPlaceGlobalWorkersDeterminism(t *testing.T) {
	run := func(workers int) (float64, float64, int) {
		d := synth.Generate(synth.Spec{Name: "workers-det", NumCells: 400, NumMovableMacros: 2})
		idx := d.Movable()
		res := mustPlaceGlobal(t, d.Compile(), idx, Options{GridM: 32, MaxIters: 60, MinIters: 60, Workers: workers}, "mGP", 0)
		return res.HPWL, res.Overflow, res.Iterations
	}
	h1, o1, it1 := run(1)
	for _, workers := range []int{2, 7, 0} {
		h, o, it := run(workers)
		if math.Float64bits(h) != math.Float64bits(h1) || math.Float64bits(o) != math.Float64bits(o1) || it != it1 {
			t.Fatalf("workers=%d: (HPWL %v, tau %v, iters %d) != workers=1 (%v, %v, %d)",
				workers, h, o, it, h1, o1, it1)
		}
	}
}
