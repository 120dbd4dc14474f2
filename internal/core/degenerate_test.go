package core

import (
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// Degenerate designs run the whole flow to a legal layout: nothing to
// move, nothing to connect, nothing on rows, or a density bound no
// layout meets.
func TestFlowDegenerateDesigns(t *testing.T) {
	region := geom.Rect{Hx: 40, Hy: 40}
	for _, tc := range []struct {
		name  string
		build func() *netlist.Design
	}{
		{"empty", func() *netlist.Design { return netlist.New("empty", region) }},
		{"all fixed", func() *netlist.Design {
			d := netlist.New("fixed", region)
			a := d.AddCell(netlist.Cell{W: 4, H: 4, X: 10, Y: 10, Kind: netlist.Macro, Fixed: true})
			b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 35, Y: 30, Kind: netlist.Pad, Fixed: true})
			n := d.AddNet("n", 1)
			d.Connect(a, n, 0, 0)
			d.Connect(b, n, 0, 0)
			return d
		}},
		{"no nets", func() *netlist.Design {
			d := netlist.New("nonets", region)
			for i := 0; i < 30; i++ {
				d.AddCell(netlist.Cell{W: 2, H: 1, X: 20, Y: 20})
			}
			return d
		}},
		{"one cell", func() *netlist.Design {
			d := netlist.New("one", region)
			c := d.AddCell(netlist.Cell{W: 2, H: 1, X: 3, Y: 3})
			p := d.AddCell(netlist.Cell{W: 1, H: 1, X: 38, Y: 38, Kind: netlist.Pad, Fixed: true})
			n := d.AddNet("n", 1)
			d.Connect(c, n, 0, 0)
			d.Connect(p, n, 0, 0)
			return d
		}},
		{"macro-only without rows", func() *netlist.Design {
			d := netlist.New("macros", region)
			var ms []int
			for i := 0; i < 3; i++ {
				ms = append(ms, d.AddCell(netlist.Cell{W: 8, H: 6, X: 20, Y: 20, Kind: netlist.Macro}))
			}
			n := d.AddNet("n", 1)
			for _, m := range ms {
				d.Connect(m, n, 0, 0)
			}
			return d
		}},
		{"one row", func() *netlist.Design {
			// The region is one standard-cell row tall: 24 cells on a
			// chain of nets fill 60% of it.
			d := netlist.New("onerow", geom.Rect{Hx: 80, Hy: 1})
			var cs []int
			for i := 0; i < 24; i++ {
				cs = append(cs, d.AddCell(netlist.Cell{W: 2, H: 1, X: 40, Y: 0.5}))
			}
			for i := 1; i < len(cs); i++ {
				n := d.AddNet("", 1)
				d.Connect(cs[i-1], n, 0, 0)
				d.Connect(cs[i], n, 0, 0)
			}
			return d
		}},
		{"rho_t 0.05", func() *netlist.Design {
			d := testCircuit(200, 9)
			d.TargetDensity = 0.05
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.build()
			if err := d.Validate(); err != nil {
				t.Fatalf("test design invalid: %v", err)
			}
			res, err := Place(d, FlowOptions{GP: Options{GridM: 16, MaxIters: 300, Workers: 1}})
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			if !res.Legal {
				t.Error("layout not legal")
			}
			for _, ci := range d.Movable() {
				if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
					t.Errorf("cell %d at %v left the region", ci, d.Cells[ci].Rect())
				}
			}
		})
	}
}
