package detail

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"eplace/internal/netlist"
)

// ecoSubset shapes a design like one ECO call: the cells of the central
// quarter of the die plus every sixth cell elsewhere (1942 of 5000, 39%: a
// geometric halo and scattered net neighbours) stay movable and are
// returned as the refine set; the rest are frozen as fixed obstacles.
func ecoSubset(d *netlist.Design, cells []int) []int {
	w, h := d.Region.W(), d.Region.H()
	var active []int
	for _, ci := range cells {
		c := &d.Cells[ci]
		central := math.Abs(c.X-w/2) < w/4 && math.Abs(c.Y-h/2) < h/4
		if central || ci%6 == 0 {
			active = append(active, ci)
		} else {
			c.Fixed = true
		}
	}
	return active
}

// positionDigest is FNV-1a over the bit patterns of every cell's (X, Y).
func positionDigest(d *netlist.Design) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := range d.Cells {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(d.Cells[i].X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Cells[i].Y))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDetailPlacePinned holds cDP to its decisions: every accept/reject,
// and so every final position bit and counter. The default configuration
// is pinned to what it decided at commit 8597a0c, before the trial
// evaluator; the ECO one (a seeded start from an insertion, with the
// settings core.PlaceECO refines with) to what it decided when ECO's
// refinement took the cold flow's depth, with swap turns for the moved
// cells alone (none of which swaps here). A constant that has to change means a
// change moved a layout; that is never a re-roll inside a same-bits
// change.
func TestDetailPlacePinned(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*netlist.Design, []int, *Edit)
		digest uint64
		want   Result
	}{
		{"default", func() (*netlist.Design, []int, *Edit) {
			d, cells := bigLegalDesign(5000, 7)
			return d, cells, nil
		}, 0xbff07b9dadfcd252, Result{Passes: 3, Swaps: 11712, Reorders: 7419, Relocates: 2717, ISMRounds: 1790}},
		{"eco", ecoInsertEdit, 0xf1db4e88b8d1c5b3, Result{Passes: 3, Reorders: 9, Relocates: 2, ISMRounds: 18}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 7} {
			d, cells, edit := tc.build()
			cv := d.Compile()
			res, err := PlaceCompiled(cv, cells, edit, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
			cv.Store() // the refined layout is the view's

			res.HPWLBefore, res.HPWLAfter = 0, 0 // the digest covers what they measure
			if res != tc.want {
				t.Errorf("%s workers %d: counters %+v, pinned %+v", tc.name, w, res, tc.want)
			}
			if dg := positionDigest(d); dg != tc.digest {
				t.Errorf("%s workers %d: position digest %#016x, pinned %#016x (%d cells refined)",
					tc.name, w, dg, tc.digest, len(cells))
			}
		}
	}
}
