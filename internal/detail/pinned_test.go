package detail

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"eplace/internal/netlist"
)

// ecoOptions are the settings core.PlaceECO refines with.
var ecoOptions = Options{Passes: 6, SwapCandidates: 16}

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

// TestDetailPlacePinned holds cDP to the decisions it made at commit
// 8597a0c, before the trial evaluator: every accept/reject, and so every
// final position bit and counter, on the default configuration and on
// the ECO one. A constant that has to change means a change moved a
// layout; that is never a re-roll inside a same-bits change.
func TestDetailPlacePinned(t *testing.T) {
	cases := []struct {
		name   string
		eco    bool
		digest uint64
		want   Result
	}{
		{name: "default", digest: 0xbff07b9dadfcd252,
			want: Result{Passes: 3, Swaps: 11712, Reorders: 7419, Relocates: 2717, ISMRounds: 1790}},
		{name: "eco", eco: true, digest: 0xc8e25aa1bc11a750,
			want: Result{Passes: 6, Swaps: 3031, Reorders: 2013, Relocates: 867, ISMRounds: 1231}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 7} {
			d, cells := bigLegalDesign(5000, 7)
			opt := Options{}
			if tc.eco {
				cells = ecoSubset(d, cells)
				opt = ecoOptions
			}
			opt.Workers = w
			res, err := Place(d, cells, opt)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
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
