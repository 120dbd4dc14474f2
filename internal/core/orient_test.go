package core

import (
	"fmt"
	"slices"
	"testing"

	"eplace/internal/synth"
)

// TestFlowAllowOrientPinned holds the mixed-size flow with macro rotation
// to pinned digests (recorded on amd64 with AVX2). mLG turns two of the
// five macros, which swaps their W/H and rewrites their pins' offsets in
// the structs: a view that outlives the stage and is not re-synced from
// them (extents, pin offsets) moves cGP and everything after it; a copy
// whose Sync skips either fails here. Seed 2 is a circuit on which mLG
// turns macros.
func TestFlowAllowOrientPinned(t *testing.T) {
	pinned := []string{
		"mIP 1 3a2911739acaf018",
		"mGP 150 5043cd9c275ba760",
		"mLG 1 17c398bb9c4a10f5",
		"cGP-filler 20 96cc2bb7572e1bea",
		"cGP 26 34e5c1df667a5624",
		"cDP 3 03167e47cf8166f2",
		"final 1 7bbb1515d692c83a",
	}
	spec := synth.Spec{Name: "orient", NumCells: 400, NumMovableMacros: 5, Seed: 2}
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
