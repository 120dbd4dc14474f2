package legalize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// freeSegmentsRef is FreeSegments as it was before the obstacles were
// bucketed by row: every row scans every cell. Kept as the reference.
func freeSegmentsRef(d *netlist.Design, cells []int) [][]Segment {
	placed := map[int]bool{}
	for _, ci := range cells {
		placed[ci] = true
	}
	segs := make([][]Segment, len(d.Rows))
	for ri, row := range d.Rows {
		type iv struct{ lo, hi float64 }
		var blocks []iv
		rowRect := geom.Rect{Lx: row.Lx, Ly: row.Y, Hx: row.Hx, Hy: row.Y + row.Height}
		for i := range d.Cells {
			c := &d.Cells[i]
			if placed[i] {
				continue
			}
			r := c.Rect()
			if r.Intersects(rowRect) {
				blocks = append(blocks, iv{math.Max(r.Lx, row.Lx), math.Min(r.Hx, row.Hx)})
			}
		}
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].lo < blocks[b].lo })
		x := row.Lx
		for _, b := range blocks {
			if b.lo > x {
				segs[ri] = append(segs[ri], Segment{x, b.lo})
			}
			if b.hi > x {
				x = b.hi
			}
		}
		if x < row.Hx {
			segs[ri] = append(segs[ri], Segment{x, row.Hx})
		}
	}
	return segs
}

// checkLegalRef is CheckLegal as it was before the row bands: a sweep
// over all the cells in x, then every obstacle against every cell. Kept
// as the reference.
func checkLegalRef(d *netlist.Design, cells []int) error {
	if len(d.Rows) == 0 {
		return fmt.Errorf("legalize: design has no rows")
	}
	rowAt := make(map[float64]bool, len(d.Rows))
	for _, r := range d.Rows {
		rowAt[round6(r.Y)] = true
	}
	type placed struct {
		r  geom.Rect
		ci int
	}
	var all []placed
	for _, ci := range cells {
		c := &d.Cells[ci]
		r := c.Rect()
		if !d.Region.ContainsRect(r) {
			return fmt.Errorf("legalize: cell %d (%s) outside region: %v", ci, c.Name, r)
		}
		if !rowAt[round6(r.Ly)] {
			return fmt.Errorf("legalize: cell %d (%s) not row-aligned: y=%v", ci, c.Name, r.Ly)
		}
		all = append(all, placed{r, ci})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].r.Lx < all[b].r.Lx })
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].r.Lx >= all[i].r.Hx-1e-9 {
				break
			}
			if ov := all[i].r.Overlap(all[j].r); ov > 1e-6 {
				return fmt.Errorf("legalize: cells %d and %d overlap by %v", all[i].ci, all[j].ci, ov)
			}
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed && c.Kind != netlist.Macro {
			continue
		}
		fr := c.Rect()
		for _, p := range all {
			if p.ci == i {
				continue
			}
			if ov := fr.Overlap(p.r); ov > 1e-6 {
				return fmt.Errorf("legalize: cell %d overlaps fixed/macro %d by %v", p.ci, i, ov)
			}
		}
	}
	return nil
}

// violationKind is what a CheckLegal error complains about. Which pair
// an overlap names, and whether a cell that sits on a cell and on an
// obstacle is reported for the one or the other, is the sweep's business.
func violationKind(err error) string {
	if err == nil {
		return "legal"
	}
	for _, kind := range []string{"no rows", "outside region", "not row-aligned", "overlap"} {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return err.Error()
}

// sameVerdict holds CheckLegal and FreeSegments to their references.
func sameVerdict(t *testing.T, what string, d *netlist.Design, cells []int) error {
	t.Helper()
	got, want := CheckLegal(d, cells), checkLegalRef(d, cells)
	if violationKind(got) != violationKind(want) {
		t.Errorf("%s: CheckLegal says %v, the all-pairs reference %v", what, got, want)
	}
	if !reflect.DeepEqual(FreeSegments(d, cells), freeSegmentsRef(d, cells)) {
		t.Errorf("%s: FreeSegments differs from the per-row scan", what)
	}
	return got
}

// obstacleDesign is a legalized design with everything CheckLegal and
// FreeSegments special-case: macros over several rows, pads (one under a
// macro, one off the row grid, one sticking out of the region), a frozen
// majority as in ECO, double-height cells, and rows only over the lower
// part of the region, so that some obstacles sit above the last row.
func obstacleDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("ref", geom.Rect{Hx: 160, Hy: 70})
	BuildRows(d, 2, 1)
	d.Rows = d.Rows[:30]
	d.AddCell(netlist.Cell{W: 20, H: 10, X: 50, Y: 15, Kind: netlist.Macro, Fixed: true})
	d.AddCell(netlist.Cell{W: 12, H: 7, X: 120, Y: 40.5, Kind: netlist.Macro}) // not fixed, not row-aligned
	d.AddCell(netlist.Cell{W: 1, H: 1, X: 45.5, Y: 12.5, Kind: netlist.Pad, Fixed: true})
	d.AddCell(netlist.Cell{W: 1.5, H: 1.3, X: 90.3, Y: 30.7, Kind: netlist.Pad, Fixed: true})
	d.AddCell(netlist.Cell{W: 4, H: 4, X: 159, Y: 1, Kind: netlist.Pad, Fixed: true})
	d.AddCell(netlist.Cell{W: 6, H: 3, X: 80, Y: 66, Kind: netlist.Pad, Fixed: true})
	d.AddCell(netlist.Cell{W: 3, H: 2, X: 20, Y: 63, Kind: netlist.Pad, Fixed: true})
	var cells []int
	for i := 0; i < n; i++ {
		h := 2.0
		if i%25 == 0 {
			h = 4
		}
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(1 + rng.Intn(4)), H: h,
			X: 5 + rng.Float64()*150, Y: 2 + rng.Float64()*56,
		}))
	}
	if _, _, err := Cells(d, cells, 1); err != nil {
		panic(err)
	}
	return d, cells
}

// TestCheckLegalMatchesAllPairs: the banded sweep and the bucketed
// segments agree with the references on legal layouts, with most of the
// cells frozen into obstacles, and on every kind of injected violation.
func TestCheckLegalMatchesAllPairs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d, cells := obstacleDesign(600, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		// Double-height cells were legalized by their bottom row alone.
		var legal []int
		for _, ci := range cells {
			if d.Cells[ci].H == 2 {
				legal = append(legal, ci)
			}
		}
		if err := sameVerdict(t, "single-height cells", d, legal); err != nil {
			t.Fatalf("seed %d: start is not legal: %v", seed, err)
		}
		sameVerdict(t, "all cells", d, cells)

		// ECO shape: 60% of the cells frozen; once out of the checked
		// list, once still in it.
		var active []int
		for _, ci := range legal {
			if rng.Intn(10) < 6 {
				d.Cells[ci].Fixed = true
			} else {
				active = append(active, ci)
			}
		}
		if err := sameVerdict(t, "frozen majority", d, active); err != nil {
			t.Errorf("seed %d: frozen majority: %v", seed, err)
		}
		if err := sameVerdict(t, "fixed cells in the list", d, legal); err != nil {
			t.Errorf("seed %d: fixed cells in the list: %v", seed, err)
		}

		pick := func(fixed bool) *netlist.Cell {
			for {
				if c := &d.Cells[legal[rng.Intn(len(legal))]]; c.Fixed == fixed {
					return c
				}
			}
		}
		inject := func(what string, edit func(), want string) {
			t.Helper()
			save := append([]netlist.Cell(nil), d.Cells...)
			edit()
			for _, list := range [][]int{active, legal} {
				if got := violationKind(sameVerdict(t, what, d, list)); want != "" && got != want {
					t.Errorf("seed %d: %s: verdict %q, want %q", seed, what, got, want)
				}
			}
			copy(d.Cells, save)
		}
		for rep := 0; rep < 20; rep++ {
			a, b, f := pick(false), pick(false), pick(true)
			inject("cell on cell", func() { a.X, a.Y = b.X+0.25, b.Y }, "overlap")
			inject("cell on frozen cell", func() { a.X, a.Y = f.X-0.25, f.Y }, "")
			inject("cell on macro", func() { a.X, a.Y = 45+rng.Float64()*10, 11+2*float64(rng.Intn(4)) }, "overlap")
			inject("cell on fixed pad", func() { a.X, a.Y = 90.3, 31 }, "")
			inject("cell under the unaligned macro", func() { a.X, a.Y = 120, 37 }, "")
			inject("double-height cell across two rows", func() { a.H, a.Y = 4, a.Y+1 }, "")
			inject("double-height cell on the row above", func() { a.X, a.Y, a.H = b.X, b.Y-1, 4 }, "")
			inject("cell off the rows", func() { a.Y += 0.5 }, "not row-aligned")
			inject("cell outside the region", func() { a.X = 160 }, "outside region")
			inject("cell on the pad that sticks out", func() { a.X, a.Y = 157.5, 1 }, "")
			inject("overlap thinner than 1e-9 in x", func() { a.Y, a.X = b.Y, b.X+b.W/2+a.W/2-5e-10 }, "")
			inject("overlap of 1e-8 in x", func() { a.Y, a.X = b.Y, b.X+b.W/2+a.W/2-1e-8 }, "")
			inject("obstacle moved onto a cell", func() { d.Cells[3].X, d.Cells[3].Y = a.X, a.Y+0.4 }, "overlap")
			inject("pad above the rows moved onto a cell", func() { d.Cells[6].X, d.Cells[6].Y = a.X, a.Y }, "overlap")
			inject("macro grown over many rows", func() { d.Cells[0].H, d.Cells[0].W = 40, 60 }, "")
		}
	}
}

// TestCheckLegalThinTallOverlap: the sweep never compared two cells that
// overlap by less than 1e-9 in x, however tall; an obstacle it did.
func TestCheckLegalThinTallOverlap(t *testing.T) {
	d := netlist.New("thin", geom.Rect{Hx: 100, Hy: 4000})
	BuildRows(d, 2000, 0)
	a := d.AddCell(netlist.Cell{W: 10, H: 2000, X: 20, Y: 1000})
	b := d.AddCell(netlist.Cell{W: 10, H: 2000, X: 30 - 8e-10, Y: 1000})
	if err := sameVerdict(t, "thin overlap of two cells", d, []int{a, b}); err != nil {
		t.Errorf("two cells 8e-10 into each other: %v", err)
	}
	d.Cells[b].Fixed = true
	if err := sameVerdict(t, "thin overlap with an obstacle", d, []int{a}); err == nil {
		t.Error("a cell 8e-10 into an obstacle 2000 tall passes")
	}
}

// TestCheckLegalAllocatesLess: the banded check allocates index arrays,
// not a rectangle per cell grown by append.
func TestCheckLegalAllocatesLess(t *testing.T) {
	d, cells := obstacleDesign(1200, 9)
	bytes := func(fn string, f func()) int64 {
		tally, stop := profileAllocs(fn)
		defer stop()
		f()
		b, _ := tally()
		return b
	}
	got := bytes("eplace/internal/legalize.CheckLegal", func() { _ = CheckLegal(d, cells) })
	ref := bytes("eplace/internal/legalize.checkLegalRef", func() { _ = checkLegalRef(d, cells) })
	if got >= ref/2 {
		t.Errorf("CheckLegal allocates %d B, the all-pairs reference %d B", got, ref)
	}
}

// BenchmarkCheckLegal is the check flowRun.finish runs after every ECO
// call: 5000 cells, 60% of them frozen into obstacles.
func BenchmarkCheckLegal(b *testing.B) {
	d, cells := bigLegalizeDesign(5000, 5)
	if _, _, err := Cells(d, cells, 1); err != nil {
		b.Fatal(err)
	}
	for k, ci := range cells {
		d.Cells[ci].Fixed = k%5 < 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckLegal(d, cells); err != nil {
			b.Fatal(err)
		}
	}
}
