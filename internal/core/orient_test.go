package core

import (
	"fmt"
	"slices"
	"testing"

	"eplace/internal/synth"
)

// TestFlowAllowOrientPinned holds the mixed-size flow with macro rotation
// to the digests of commit d0f2322, where every stage still compiled its
// own view, as that commit gives them under the spectral32 Poisson solve
// (recorded on amd64 with AVX2). mLG turns three of the five macros,
// which swaps their W/H and rewrites their pins' offsets in the structs:
// a view that outlives the stage and is not re-synced from them
// (extents, pin offsets) moves cGP and everything after it.
func TestFlowAllowOrientPinned(t *testing.T) {
	pinned := []string{
		"mIP 1 e9fa18c45aac5686",
		"mGP 162 b096c6a2a0849267",
		"mLG 1 841dbf0b4f76b275",
		"cGP-filler 20 fcfc6ebb5308b149",
		"cGP 30 ac7899377098d763",
		"cDP 3 a4fcda11a8ccf340",
		"final 1 2cf48c172816ad3f",
	}
	spec := synth.Spec{Name: "orient", NumCells: 400, NumMovableMacros: 5, Seed: 1}
	for _, workers := range []int{1, 7} {
		d, in := synth.Generate(spec), synth.Generate(spec)
		opt := detFlowOpts(workers)
		opt.AllowOrient = true
		res, err := Place(d, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		turned := 0
		for _, mi := range macros(in) {
			if d.Cells[mi].W != in.Cells[mi].W {
				turned++
			}
		}
		if turned == 0 {
			t.Fatalf("workers=%d: no macro ended rotated; the case no longer covers pin-offset staleness", workers)
		}
		var got []string
		for _, dg := range res.Digests {
			got = append(got, fmt.Sprintf("%s %d %s", dg.Stage, dg.Iterations, dg.Hex()))
		}
		if !slices.Equal(got, pinned) {
			t.Errorf("workers=%d: digests\n%q\npinned\n%q", workers, got, pinned)
		}
	}
}
