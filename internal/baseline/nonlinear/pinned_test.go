package nonlinear

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
)

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

// TestNonlinearPinned holds BellPL and FFTPL to the results they gave
// when BellPL still priced wirelength through a model that re-synced a
// private view from the Cell structs on every evaluation: every Result
// field bit for bit and a digest of the final positions, at one and two
// workers. A constant that has to change means a change moved a
// baseline's layout.
func TestNonlinearPinned(t *testing.T) {
	spec := synth.Spec{Name: "pin", NumCells: 300, NumFixedMacros: 2, Seed: 3}
	opt := Options{GridM: 32, InnerIters: 10}
	cases := []struct {
		name   string
		place  func(d *netlist.Design, idx []int, opt Options) (Result, error)
		want   Result
		digest uint64
	}{
		{
			name: "BellPL",
			place: func(d *netlist.Design, idx []int, opt Options) (Result, error) {
				return PlaceBell(d, idx, opt), nil
			},
			want: Result{OuterIterations: 10, CostEvals: 301, GradEvals: 101,
				HPWL: math.Float64frombits(0x40b46cd0ab464c0c), Overflow: math.Float64frombits(0x3fb3232f0691f467)},
			digest: 0xb0f1eca484d3d08a,
		},
		{
			name:  "FFTPL",
			place: PlaceFFTPL,
			want: Result{OuterIterations: 12, CostEvals: 363, GradEvals: 121,
				HPWL: math.Float64frombits(0x40b2e36289cb86fb), Overflow: math.Float64frombits(0x3fb4849fd383a0b5)},
			digest: 0xac9f6ea4f1d1dea2,
		},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2} {
			d := synth.Generate(spec)
			o := opt
			o.Workers = w
			res, err := tc.place(d, d.Movable(), o)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
			// Float fields compare by value; the pinned ones are finite and
			// nonzero, so equal values are equal bits.
			if res != tc.want {
				t.Errorf("%s workers %d: result %+v, pinned %+v", tc.name, w, res, tc.want)
			}
			if dg := positionDigest(d); dg != tc.digest {
				t.Errorf("%s workers %d: position digest %#x, pinned %#x", tc.name, w, dg, tc.digest)
			}
		}
	}
}
