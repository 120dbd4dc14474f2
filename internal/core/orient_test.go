package core

import (
	"fmt"
	"slices"
	"testing"

	"eplace/internal/legalize"
	"eplace/internal/synth"
)

// TestFlowAllowOrientPinned holds the mixed-size flow with macro rotation
// to the digests of commit d0f2322, where every stage still compiled its
// own view. mLG turns three of the five macros, which swaps their W/H and
// rewrites their pins' offsets in the structs: a view that outlives the
// stage and is not re-synced from them (extents, pin offsets) moves cGP
// and everything after it.
func TestFlowAllowOrientPinned(t *testing.T) {
	pinned := []string{
		"mIP 1 e9fa18c45aac5686",
		"mGP 162 c3493cd974d16d17",
		"mLG 1 9ceb77eebb8675cd",
		"cGP-filler 20 cae40c75a177721c",
		"cGP 30 b77aa10f161f6c0f",
		"cDP 3 d3d856bf6ff91d29",
		"final 1 5e24e59bd2afca2f",
	}
	spec := synth.Spec{Name: "orient", NumCells: 400, NumMovableMacros: 5, Seed: 1}
	for _, workers := range []int{1, 7} {
		d, in := synth.Generate(spec), synth.Generate(spec)
		opt := detFlowOpts(workers)
		opt.MLG = legalize.MLGOptions{AllowOrient: true}
		res, err := Place(d, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		turned := 0
		for _, mi := range in.Macros() {
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
