package cluster

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
)

func testDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := synth.Generate(synth.Spec{
		Name: "clustest", NumCells: 3000,
		NumMovableMacros: 4, NumFixedMacros: 4,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// membersOf inverts Up: coarse index -> fine member indices.
func membersOf(l *Level) [][]int {
	m := make([][]int, len(l.D.Cells))
	for fi, ci := range l.Up {
		m[ci] = append(m[ci], fi)
	}
	return m
}

func TestCoarsenPartitionAndArea(t *testing.T) {
	d := testDesign(t)
	lvl := Coarsen(d.Compile(), nil)
	if lvl == nil {
		t.Fatal("Coarsen returned nil on a 3000-cell design")
	}
	if len(lvl.Up) != len(d.Cells) {
		t.Fatalf("Up covers %d cells, fine has %d", len(lvl.Up), len(d.Cells))
	}
	for fi, ci := range lvl.Up {
		if ci < 0 || ci >= len(lvl.D.Cells) {
			t.Fatalf("Up[%d] = %d out of range [0, %d)", fi, ci, len(lvl.D.Cells))
		}
	}

	fineStd, coarseStd := 0, 0
	for i := range d.Cells {
		if !d.Cells[i].Fixed && d.Cells[i].Kind == netlist.StdCell {
			fineStd++
		}
	}
	members := membersOf(lvl)
	for ci := range lvl.D.Cells {
		cc := &lvl.D.Cells[ci]
		mem := members[ci]
		if len(mem) == 0 {
			t.Fatalf("coarse cell %d has no fine members", ci)
		}
		if !cc.Fixed && cc.Kind == netlist.StdCell {
			coarseStd++
		}
		if len(mem) == 1 {
			// Singletons keep their exact geometry, kind and fixedness so
			// pin offsets and fixed charge stay valid.
			fc := &d.Cells[mem[0]]
			if cc.W != fc.W || cc.H != fc.H || cc.X != fc.X || cc.Y != fc.Y ||
				cc.Kind != fc.Kind || cc.Fixed != fc.Fixed {
				t.Errorf("singleton %d does not mirror fine cell %d: %+v vs %+v", ci, mem[0], cc, fc)
			}
			continue
		}
		// Multi-member clusters hold movable standard cells only, and the
		// footprint conserves the exact member area.
		var area float64
		for _, fi := range mem {
			fc := &d.Cells[fi]
			if fc.Fixed || fc.Kind != netlist.StdCell {
				t.Fatalf("cluster %d contains non-std or fixed fine cell %d (kind %v fixed %v)",
					ci, fi, fc.Kind, fc.Fixed)
			}
			area += fc.Area()
		}
		if cc.Fixed || cc.Kind != netlist.StdCell {
			t.Errorf("cluster %d emitted as kind %v fixed %v", ci, cc.Kind, cc.Fixed)
		}
		if got := cc.Area(); math.Abs(got-area) > 1e-9*area {
			t.Errorf("cluster %d area %v, members total %v", ci, got, area)
		}
	}
	if red := float64(fineStd) / float64(coarseStd); red < 1.25 {
		t.Errorf("reduction %.2fx below the 1.25x floor (%d -> %d std cells)", red, fineStd, coarseStd)
	}

	// Non-std population (macros, pads, fixed blocks) survives unchanged.
	count := func(dd *netlist.Design) map[string]int {
		h := map[string]int{}
		for i := range dd.Cells {
			c := &dd.Cells[i]
			if c.Kind != netlist.StdCell || c.Fixed {
				h[fmt.Sprintf("%v/%v", c.Kind, c.Fixed)]++
			}
		}
		return h
	}
	if f, c := count(d), count(lvl.D); !reflect.DeepEqual(f, c) {
		t.Errorf("non-std census changed: fine %v coarse %v", f, c)
	}
}

// TestCoarsenNetConservation recomputes the expected coarse netlist
// independently from Up and checks the emitted one matches: every fine
// net spanning >= 2 clusters survives with exactly its distinct coarse
// endpoints and weight; nets collapsing inside one cluster vanish.
func TestCoarsenNetConservation(t *testing.T) {
	d := testDesign(t)
	lvl := Coarsen(d.Compile(), nil)
	if lvl == nil {
		t.Fatal("Coarsen returned nil")
	}

	key := func(ends []int, weight float64) string {
		sort.Ints(ends)
		return fmt.Sprintf("%v w%g", ends, weight)
	}
	want := map[string]int{}
	wantPins := 0
	for ni := range d.Nets {
		net := &d.Nets[ni]
		seen := map[int]bool{}
		var ends []int
		for _, pi := range net.Pins {
			ci := lvl.Up[d.Pins[pi].Cell]
			if !seen[ci] {
				seen[ci] = true
				ends = append(ends, ci)
			}
		}
		if len(ends) < 2 {
			continue
		}
		want[key(ends, net.Weight)]++
		wantPins += len(ends)
	}

	got := map[string]int{}
	for ni := range lvl.D.Nets {
		net := &lvl.D.Nets[ni]
		var ends []int
		for _, pi := range net.Pins {
			ends = append(ends, lvl.D.Pins[pi].Cell)
		}
		if len(ends) < 2 {
			t.Errorf("coarse net %d has degree %d", ni, len(ends))
		}
		got[key(ends, net.Weight)]++
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("coarse nets differ from Up-derived expectation: %d want keys, %d got keys",
			len(want), len(got))
	}
	if len(lvl.D.Pins) != wantPins {
		t.Errorf("coarse pins = %d, expected %d", len(lvl.D.Pins), wantPins)
	}
}

func TestCoarsenTooSmallReturnsNil(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "tiny", NumCells: 250})
	if lvl := Coarsen(d.Compile(), nil); lvl != nil {
		t.Error("Coarsen clustered a design below 2*MinCells")
	}
	h := Build(d, 4, Options{})
	if h.Depth() != 1 {
		t.Errorf("Build depth = %d on a too-small design, want 1", h.Depth())
	}
}

// TestCoarsenDeterministic regenerates the same design twice and
// coarsens both: the coarse designs and maps must match bit for bit
// (the resume path rebuilds hierarchies and relies on this).
func TestCoarsenDeterministic(t *testing.T) {
	a := Coarsen(testDesign(t).Compile(), nil)
	b := Coarsen(testDesign(t).Compile(), nil)
	if a == nil || b == nil {
		t.Fatal("Coarsen returned nil")
	}
	if !reflect.DeepEqual(a.Up, b.Up) {
		t.Fatal("fine->coarse maps differ between identical runs")
	}
	if !reflect.DeepEqual(a.D.Cells, b.D.Cells) {
		t.Fatal("coarse cells differ between identical runs")
	}
	if !reflect.DeepEqual(a.D.Nets, b.D.Nets) || !reflect.DeepEqual(a.D.Pins, b.D.Pins) {
		t.Fatal("coarse connectivity differs between identical runs")
	}
}

func TestBuildHierarchyShrinks(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "stack", NumCells: 8000})
	h := Build(d, 4, Options{})
	if h.Depth() < 3 {
		t.Fatalf("depth = %d on an 8000-cell design, want >= 3", h.Depth())
	}
	if h.Designs[0] != d {
		t.Error("Designs[0] must alias the input design")
	}
	for k := 1; k < h.Depth(); k++ {
		if len(h.Designs[k].Cells) >= len(h.Designs[k-1].Cells) {
			t.Errorf("level %d did not shrink: %d -> %d cells",
				k, len(h.Designs[k-1].Cells), len(h.Designs[k].Cells))
		}
		if err := h.Designs[k].Validate(); err != nil {
			t.Errorf("level %d invalid: %v", k, err)
		}
		if h.Levels[k-1].View.Design() != h.Designs[k] {
			t.Errorf("level %d's view is not its design's", k)
		}
	}
}

// TestInterpolateSeatsMembers scatters the coarse cells in the level's
// view and hands the placement down to the fine view: members must land
// inside their cluster footprint, singletons exactly on their image, and
// fixed cells must not move. The Cell structs take no part.
func TestInterpolateSeatsMembers(t *testing.T) {
	d := testDesign(t)
	lvl := Coarsen(d.Compile(), nil)
	if lvl == nil {
		t.Fatal("Coarsen returned nil")
	}
	cv, fine := lvl.View, lvl.Fine
	for ci := range lvl.D.Cells {
		cc := &lvl.D.Cells[ci]
		if cc.Fixed {
			continue
		}
		// Deterministic scatter well inside the region.
		r := lvl.D.Region
		fx := float64(ci%97) / 97
		fy := float64(ci%89) / 89
		cv.PosX[ci] = r.Lx + cc.W/2 + fx*(r.W()-cc.W)
		cv.PosY[ci] = r.Ly + cc.H/2 + fy*(r.H()-cc.H)
	}
	beforeX := append([]float64(nil), fine.PosX...)
	beforeY := append([]float64(nil), fine.PosY...)
	structs := d.Positions(d.Movable())
	members := membersOf(lvl)

	lvl.Interpolate()

	const tol = 1e-9
	for i := range d.Cells {
		fx, fy := fine.PosX[i], fine.PosY[i]
		if d.Cells[i].Fixed {
			if fx != beforeX[i] || fy != beforeY[i] {
				t.Fatalf("fixed cell %d moved", i)
			}
			continue
		}
		ci := lvl.Up[i]
		x, y, w, h := cv.PosX[ci], cv.PosY[ci], cv.CellW[ci], cv.CellH[ci]
		movable := 0
		for _, m := range members[ci] {
			if !d.Cells[m].Fixed {
				movable++
			}
		}
		if movable == 1 {
			if fx != x || fy != y {
				t.Errorf("singleton %d at (%v,%v), image at (%v,%v)", i, fx, fy, x, y)
			}
			continue
		}
		if fx < x-w/2-tol || fx > x+w/2+tol || fy < y-h/2-tol || fy > y+h/2+tol {
			t.Errorf("member %d at (%v,%v) outside footprint of cluster %d", i, fx, fy, ci)
		}
	}
	if got := d.Positions(d.Movable()); !reflect.DeepEqual(got, structs) {
		t.Error("Interpolate wrote the fine design's Cell structs")
	}
}

// TestCoarsenIgnoresViewFillers: fillers live in the view alone, after
// the design's cells, so a view holding them coarsens into the same
// level as a fresh one.
func TestCoarsenIgnoresViewFillers(t *testing.T) {
	d := testDesign(t)
	want := Coarsen(d.Compile(), nil)
	cv := d.Compile()
	cv.AddFillers(300, 2, 2)
	got := Coarsen(cv, nil)
	if want == nil || got == nil {
		t.Fatal("no coarse level")
	}
	wu, wc, wn := hashLevel(want)
	gu, gc, gn := hashLevel(got)
	if wu != gu || wc != gc || wn != gn {
		t.Errorf("coarsening a view with fillers gave level %x/%x/%x, without %x/%x/%x", gu, gc, gn, wu, wc, wn)
	}
}

// hashLevel returns the FNV-64 hashes of one coarsening level: Up, the
// coarse cells' geometry, kind, fixedness and pin lists, and every
// coarse net's weight and pin list with each pin's cell, offset and
// direction.
func hashLevel(l *Level) (up, cells, nets uint64) {
	var buf [8]byte
	word := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(h hash.Hash64, v float64) { word(h, math.Float64bits(v)) }
	hu, hc, hn := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for _, ci := range l.Up {
		word(hu, uint64(ci))
	}
	d := l.D
	for i := range d.Cells {
		c := &d.Cells[i]
		f(hc, c.W)
		f(hc, c.H)
		f(hc, c.X)
		f(hc, c.Y)
		word(hc, uint64(c.Kind))
		if c.Fixed {
			word(hc, 1)
		} else {
			word(hc, 0)
		}
		word(hc, uint64(len(c.Pins)))
		for _, pi := range c.Pins {
			word(hc, uint64(pi))
		}
	}
	for ni := range d.Nets {
		net := &d.Nets[ni]
		f(hn, net.Weight)
		word(hn, uint64(len(net.Pins)))
		for _, pi := range net.Pins {
			p := &d.Pins[pi]
			word(hn, uint64(pi))
			word(hn, uint64(p.Cell))
			word(hn, uint64(p.Net))
			f(hn, p.Ox)
			f(hn, p.Oy)
			word(hn, uint64(p.Dir))
		}
	}
	return hu.Sum64(), hc.Sum64(), hn.Sum64()
}

// TestHierarchyPinned holds a 20K-cell, 4-level hierarchy to the
// counts and hashes it had before clustering moved onto the compiled
// view and a typed heap: any change to the pop order, the scoring
// order or the coarse design's construction moves a hash.
func TestHierarchyPinned(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "pinned", NumCells: 20000, Seed: 7})
	h := Build(d, 4, Options{})
	type level struct {
		cells, nets, pins  int
		hUp, hCells, hNets uint64
	}
	want := []level{
		{5032, 9958, 25063, 0x67e647e73d536dd0, 0x757c038b23e0ebd2, 0xbcd3b14eefdaf52e},
		{1282, 3462, 10281, 0x70265dddda6a68d9, 0xb725790fd5e40d5d, 0x7383036d9ba76c17},
		{421, 1485, 6062, 0xf9b6ed1f1634ba01, 0x840a04b48a24ad4d, 0x8f3365a664d24b9b},
	}
	var got []level
	for _, l := range h.Levels {
		u, c, n := hashLevel(l)
		got = append(got, level{len(l.D.Cells), len(l.D.Nets), len(l.D.Pins), u, c, n})
	}
	if !reflect.DeepEqual(got, want) {
		for k, g := range got {
			t.Logf("level %d: {%d, %d, %d, %#x, %#x, %#x}", k+1, g.cells, g.nets, g.pins, g.hUp, g.hCells, g.hNets)
		}
		t.Fatalf("hierarchy moved from its pinned counts and hashes")
	}
}

// TestBuildAllocs bounds the allocations of a 5K-cell, 4-level Build.
// The scoring heap, the member lists and the coarse designs' pin lists
// are all sized up front, so the count is a few dozen slices per level
// (about 160 in all), independent of the merges and pins; boxing heap
// entries or appending pins one at a time costs tens of thousands.
func TestBuildAllocs(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "alloc", NumCells: 5000})
	if h := Build(d, 4, Options{}); h.Depth() != 4 {
		t.Fatalf("depth = %d on a 5000-cell design, want 4", h.Depth())
	}
	const budget = 320
	if n := testing.AllocsPerRun(3, func() { Build(d, 4, Options{}) }); n > budget {
		t.Errorf("Build allocates %v times, budget %d", n, budget)
	}
}

// TestCoarsenAllocsCellsOnce: a coarse design's cells are allocated
// once, at exactly their count.
func TestCoarsenAllocsCellsOnce(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "once", NumCells: 3000})
	lvl := Coarsen(d.Compile(), nil)
	if lvl == nil {
		t.Fatal("no coarse level")
	}
	if cd := lvl.D; cap(cd.Cells) != len(cd.Cells) {
		t.Errorf("coarse cells have capacity %d for %d cells", cap(cd.Cells), len(cd.Cells))
	}
}

// BenchmarkBuildHierarchy coarsens a 20K-cell design into 4 levels,
// the hierarchy of the ml_std_20k benchmark workload.
func BenchmarkBuildHierarchy(b *testing.B) {
	d := synth.Generate(synth.Spec{Name: "bench", NumCells: 20000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHierarchy = Build(d, 4, Options{})
	}
}

var benchHierarchy *Hierarchy
