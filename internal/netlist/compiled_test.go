package netlist

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"eplace/internal/geom"
)

// TestCompileStructure checks the CSR invariants on a random design:
// offsets are the pin-count prefix sum, slots appear in (net, pin)
// order and mirror their Design.Pins entry, and the cell -> net index
// lists Cell.Pins -> Pin.Net in order.
func TestCompileStructure(t *testing.T) {
	d := randomDesign(3)
	cv := d.Compile()
	if got, want := cv.NumPinSlots(), len(d.Pins); got != want {
		t.Fatalf("pin slots = %d, want %d", got, want)
	}
	s := 0
	for ni := range d.Nets {
		if int(cv.NetOff[ni]) != s {
			t.Fatalf("NetOff[%d] = %d, want %d", ni, cv.NetOff[ni], s)
		}
		for _, pi := range d.Nets[ni].Pins {
			p := &d.Pins[pi]
			if int(cv.PinCell[s]) != p.Cell || cv.PinOx[s] != p.Ox || cv.PinOy[s] != p.Oy {
				t.Fatalf("slot %d does not mirror pin %d", s, pi)
			}
			x, y := cv.pinPosSlot(s)
			pos := d.PinPos(pi)
			if math.Float64bits(x) != math.Float64bits(pos.X) ||
				math.Float64bits(y) != math.Float64bits(pos.Y) {
				t.Fatalf("slot %d position (%v,%v) != PinPos %v", s, x, y, pos)
			}
			s++
		}
		if cv.NetW[ni] != d.Nets[ni].EffWeight() {
			t.Fatalf("NetW[%d] = %v, want %v", ni, cv.NetW[ni], d.Nets[ni].EffWeight())
		}
	}
	if int(cv.NetOff[len(d.Nets)]) != s {
		t.Fatalf("final offset %d, want %d", cv.NetOff[len(d.Nets)], s)
	}
	checkCellNets(t, d, cv)
}

// checkCellNets requires the cell -> net index to list, for every cell
// of d, the net of each of its pins in Cell.Pins order.
func checkCellNets(t *testing.T, d *Design, cv *Compiled) {
	t.Helper()
	if len(cv.CellNetOff) != len(d.Cells)+1 {
		t.Fatalf("CellNetOff has %d entries for %d cells", len(cv.CellNetOff), len(d.Cells))
	}
	for ci := range d.Cells {
		nets := cv.CellNet[cv.CellNetOff[ci]:cv.CellNetOff[ci+1]]
		if len(nets) != len(d.Cells[ci].Pins) {
			t.Fatalf("cell %d: %d index entries, %d pins", ci, len(nets), len(d.Cells[ci].Pins))
		}
		for k, pi := range d.Cells[ci].Pins {
			if int(nets[k]) != d.Pins[pi].Net {
				t.Fatalf("cell %d pin %d: net %d, want %d", ci, k, nets[k], d.Pins[pi].Net)
			}
		}
	}
}

// TestSyncMatchesFreshCompile is the shared view's staleness guard: after
// everything a stage boundary does to the structs (moves, a macro turned
// with its pin offsets, reweighted nets) and to the view's fillers
// (added, dropped and added again), one Sync must leave every entry of
// the design's cells equal to a fresh Compile's, and the fillers' where
// they were.
func TestSyncMatchesFreshCompile(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDesign(seed)
		cv := d.Compile()
		rng := rand.New(rand.NewSource(seed ^ 0x51ac))
		fillers := func(n int) {
			first := cv.AddFillers(n, 1.5, 2)
			for ci := first; ci < len(cv.PosX); ci++ {
				cv.PosX[ci], cv.PosY[ci] = rng.Float64()*100, rng.Float64()*100
			}
		}
		steps := []func(){
			func() {
				for i := range d.Cells {
					d.Cells[i].X, d.Cells[i].Y = rng.Float64()*100, rng.Float64()*100
				}
			},
			func() { // legalize.rotateMacro
				c := &d.Cells[rng.Intn(len(d.Cells))]
				c.W, c.H = c.H, c.W
				for _, pi := range c.Pins {
					d.Pins[pi].Ox, d.Pins[pi].Oy = -d.Pins[pi].Oy, d.Pins[pi].Ox
				}
			},
			func() { d.Nets[rng.Intn(len(d.Nets))].Weight = rng.Float64() * 5 },
			func() { fillers(1 + rng.Intn(40)) },
			func() { d.Cells[rng.Intn(len(d.Cells))].X = rng.Float64() * 100 },
			cv.DropFillers,
			func() { fillers(1 + rng.Intn(80)) },
			cv.DropFillers,
		}
		n := len(d.Cells)
		for i, step := range steps {
			step()
			fx := slices.Clone(cv.PosX[n:])
			cv.Sync()
			if !reflect.DeepEqual(viewArrays(cellEntries(cv)), viewArrays(d.Compile())) {
				t.Logf("seed %d: view differs from a fresh compile after step %d", seed, i)
				return false
			}
			if !slices.Equal(cv.PosX[n:], fx) {
				t.Logf("seed %d: Sync moved the fillers after step %d", seed, i)
				return false
			}
			for ci := n; ci < len(cv.PosX); ci++ {
				if !cv.Filler[ci] || cv.CellW[ci] != 1.5 || cv.CellH[ci] != 2 || cv.CellNetOff[ci+1] != cv.CellNetOff[n] {
					t.Logf("seed %d: filler %d is not a pinless 1.5 x 2 filler after step %d", seed, ci, i)
					return false
				}
			}
			checkCellNets(t, d, cellEntries(cv))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// cellEntries is cv without its fillers: the entries of the design's
// cells.
func cellEntries(cv *Compiled) *Compiled {
	c := *cv
	c.DropFillers()
	return &c
}

// viewArrays lists every array of the view, for whole-view comparisons.
func viewArrays(cv *Compiled) []any {
	return []any{cv.NetOff, cv.PinCell, cv.PinOx, cv.PinOy, cv.CellNetOff, cv.CellNet,
		cv.NetW, cv.PosX, cv.PosY, cv.CellW, cv.CellH, cv.Filler}
}

// TestSyncAllocFree: Sync allocates nothing, and neither do fillers
// dropped and added again within the view's capacity.
func TestSyncAllocFree(t *testing.T) {
	d := randomDesign(19)
	cv := d.Compile()
	cv.AddFillers(30, 1, 1)
	cv.Sync()
	if n := testing.AllocsPerRun(20, func() {
		cv.DropFillers()
		cv.Sync()
		cv.AddFillers(30, 1, 1)
		cv.Sync()
	}); n != 0 {
		t.Errorf("Sync allocates %v times per run", n)
	}
}

// TestCompiledHPWLMatchesDesign locks the equivalence the engine relies
// on: the flat-view HPWL is bit-for-bit the pointer-based Design.HPWL
// across random designs, both at compile-time positions and after
// moving cells through either write path.
func TestCompiledHPWLMatchesDesign(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDesign(seed)
		cv := d.Compile()
		if math.Float64bits(cv.HPWL()) != math.Float64bits(d.HPWL()) {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		idx := d.Movable()
		v := make([]float64, 2*len(idx))
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		// SoA write path (the engine's): view moves, structs stale.
		cv.SetPositions(idx, v)
		// Struct write path: sync brings the view up to date.
		d.SetPositions(idx, v)
		if math.Float64bits(cv.HPWL()) != math.Float64bits(d.HPWL()) {
			return false
		}
		cv.Sync()
		return math.Float64bits(cv.HPWL()) == math.Float64bits(d.HPWL())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCompiledHPWLAllocFree pins the engine-loop contract: evaluating
// HPWL on the view allocates nothing.
func TestCompiledHPWLAllocFree(t *testing.T) {
	d := randomDesign(7)
	cv := d.Compile()
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink = cv.HPWL() }); n != 0 {
		t.Errorf("Compiled.HPWL allocates %v times per call", n)
	}
	_ = sink
}

// TestSyncNetWeights checks weight changes propagate through the sync.
func TestSyncNetWeights(t *testing.T) {
	d := randomDesign(11)
	cv := d.Compile()
	d.Nets[0].Weight = 4.5
	cv.Sync()
	if cv.NetW[0] != 4.5 {
		t.Fatalf("NetW[0] = %v after sync, want 4.5", cv.NetW[0])
	}
	if math.Float64bits(cv.HPWL()) != math.Float64bits(d.HPWL()) {
		t.Fatal("HPWL diverged after weight change + sync")
	}
}

// TestSyncGeometryGrowth checks that the fillers a view adds after
// Compile, at indices past the design's cells, keep their entries
// through a Sync and leave the design alone.
func TestSyncGeometryGrowth(t *testing.T) {
	d := randomDesign(13)
	cv := d.Compile()
	n := len(d.Cells)
	ci := cv.AddFillers(1, 2, 2)
	cv.PosX[ci] = 9
	cv.Sync()
	if ci != n || len(d.Cells) != n {
		t.Fatalf("filler at %d, design grew to %d cells from %d", ci, len(d.Cells), n)
	}
	if cv.PosX[ci] != 9 || !cv.Filler[ci] || cv.CellW[ci] != 2 || cv.CellNetOff[ci+1] != cv.CellNetOff[ci] {
		t.Fatalf("filler not kept: x=%v filler=%v w=%v nets %d..%d",
			cv.PosX[ci], cv.Filler[ci], cv.CellW[ci], cv.CellNetOff[ci], cv.CellNetOff[ci+1])
	}
}

// TestPositionsInto checks the allocation-free variant matches
// Positions and round-trips through SetPositions.
func TestPositionsInto(t *testing.T) {
	d := randomDesign(17)
	idx := d.Movable()
	want := d.Positions(idx)
	got := make([]float64, 2*len(idx))
	d.PositionsInto(idx, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PositionsInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() { d.PositionsInto(idx, got) }); n != 0 {
		t.Errorf("PositionsInto allocates %v times per call", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("PositionsInto accepted a short buffer")
		}
	}()
	d.PositionsInto(idx, got[:1])
}

// benchDesign builds a larger design for the HPWL microbenchmarks.
func benchDesign(cells int) *Design {
	rng := rand.New(rand.NewSource(42))
	d := New("bench", geom.Rect{Hx: 1000, Hy: 1000})
	var idx []int
	for i := 0; i < cells; i++ {
		idx = append(idx, d.AddCell(Cell{
			W: 2, H: 2, X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
		}))
	}
	for k := 0; k < cells; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(5)
		for p := 0; p < deg; p++ {
			d.Connect(idx[rng.Intn(len(idx))], ni, rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	return d
}

// BenchmarkHPWL measures the pointer-chasing Design.HPWL reference.
func BenchmarkHPWL(b *testing.B) {
	d := benchDesign(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.HPWL()
	}
}

// BenchmarkCompiledHPWL measures the flat CSR/SoA HPWL the engine loop
// uses.
func BenchmarkCompiledHPWL(b *testing.B) {
	d := benchDesign(10000)
	cv := d.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cv.HPWL()
	}
}
