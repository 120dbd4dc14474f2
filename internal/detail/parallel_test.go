package detail

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
)

// bigLegalDesign builds a legalized design large enough to split into
// several detail-placement regions (cell count above regionTargetCells)
// with realistic connectivity.
func bigLegalDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n) * 3 * 2 / 0.55)
	side = math.Ceil(side/2) * 2
	d := netlist.New("dp-big", geom.Rect{Hx: side, Hy: side})
	legalize.BuildRows(d, 2, 1)
	var cells []int
	for i := 0; i < n; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(2 + rng.Intn(3)), H: 2,
			X: 2 + rng.Float64()*(side-4), Y: 2 + rng.Float64()*(side-4),
		}))
	}
	var pads []int
	for i := 0; i < 8; i++ {
		pads = append(pads, d.AddCell(netlist.Cell{
			W: 1, H: 1, X: side * float64(i) / 8, Y: side - 0.5,
			Fixed: true, Kind: netlist.Pad,
		}))
	}
	for k := 0; k < n; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(3)
		for p := 0; p < deg; p++ {
			d.Connect(cells[rng.Intn(n)], ni, 0, 0)
		}
		if rng.Intn(5) == 0 {
			d.Connect(pads[rng.Intn(len(pads))], ni, 0, 0)
		}
	}
	if _, _, err := legalize.Cells(d, cells, legalize.Abacus); err != nil {
		panic(err)
	}
	return d, cells
}

// TestDetailWorkersBitwiseIdentical is the cDP half of the back-end
// determinism property: every worker count must produce bit-for-bit
// the same layout and pass counters. 9000 cells split into 4 regions,
// so region-parallel relocate/swap/reorder and the propose/commit ISM
// protocol are all genuinely exercised.
func TestDetailWorkersBitwiseIdentical(t *testing.T) {
	var refX, refY []float64
	var ref Result
	for _, w := range []int{1, 2, 7} {
		d, cells := bigLegalDesign(9000, 13)
		res, err := Place(d, cells, Options{Workers: w, Passes: 2})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if err := legalize.CheckLegal(d, cells); err != nil {
			t.Fatalf("workers %d: not legal after detail: %v", w, err)
		}
		if res.HPWLAfter >= res.HPWLBefore {
			t.Errorf("workers %d: no improvement (%v -> %v)", w, res.HPWLBefore, res.HPWLAfter)
		}
		if w == 1 {
			ref = res
			for _, ci := range cells {
				refX = append(refX, d.Cells[ci].X)
				refY = append(refY, d.Cells[ci].Y)
			}
			continue
		}
		if res != ref {
			t.Errorf("workers %d: result %+v != serial %+v", w, res, ref)
		}
		for k, ci := range cells {
			if d.Cells[ci].X != refX[k] || d.Cells[ci].Y != refY[k] {
				t.Fatalf("workers %d: cell %d at (%v, %v), serial (%v, %v)",
					w, ci, d.Cells[ci].X, d.Cells[ci].Y, refX[k], refY[k])
			}
		}
	}
}

// buildPlacer assembles a ready-to-pass placer for the alloc and
// microbenchmark harnesses.
func buildPlacer(d *netlist.Design, cells []int, workers int) *placer {
	opt := Options{Workers: workers}
	opt.defaults()
	p, err := newPlacer(d.Compile(), cells, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// TestPassAllocs guards the churn satellite: after one warm-up sweep,
// every pass type must run allocation-free in its inner loops (the only
// steady-state allocations allowed are the per-pass fork-join closures,
// a handful of objects, not per-cell or per-window garbage), and a
// trial allocates nothing at all.
func TestPassAllocs(t *testing.T) {
	d, cells := legalDesign(400, 3)
	p := buildPlacer(d, cells, 1)
	var res Result
	passes := []struct {
		name string
		run  func(*Result) int
	}{
		{"relocatePass", p.relocatePass}, {"swapPass", p.swapPass},
		{"reorderPass", p.reorderPass}, {"ismPass", p.ismPass},
	}
	for _, ps := range passes {
		ps.run(&res)
	}
	const limit = 8
	for _, ps := range passes {
		if a := testing.AllocsPerRun(5, func() { ps.run(&res) }); a > limit {
			t.Errorf("%s allocates %v objects per run, want <= %d", ps.name, a, limit)
		}
	}
	e := p.evals[0]
	trial := func() {
		e.begin(cells[:16])
		e.cost()
		e.dropHalves(2)
		e.beginPair(&segCells{cells: cells[:2]}, 0, 1)
		e.cost()
	}
	trial()
	if a := testing.AllocsPerRun(20, trial); a != 0 {
		t.Errorf("a trial allocates %v objects, want 0", a)
	}
}

// TestHungarianAllocs: the flat assignment solver reuses its scratch.
func TestHungarianAllocs(t *testing.T) {
	var s hungScratch
	n := 6
	cost := make([]float64, n*n)
	for i := range cost {
		cost[i] = float64((i*7919)%101) / 10
	}
	s.solve(n, cost) // warm the scratch
	if a := testing.AllocsPerRun(100, func() { s.solve(n, cost) }); a != 0 {
		t.Errorf("hungScratch.solve allocates %v objects per run, want 0", a)
	}
}

// TestPermutationsCached: window-sized tables come from the shared cache.
func TestPermutationsCached(t *testing.T) {
	for n := 1; n <= 4; n++ {
		if a := testing.AllocsPerRun(100, func() { permutations(n) }); a != 0 {
			t.Errorf("permutations(%d) allocates %v objects per run, want 0", n, a)
		}
	}
	if got := len(permutations(4)); got != 24 {
		t.Errorf("permutations(4) has %d entries, want 24", got)
	}
}

// BenchmarkDetailPass measures one full improvement pass (reorder +
// swap + ISM + relocate) over a 5000-cell legalized design at 1 worker.
func BenchmarkDetailPass(b *testing.B) {
	d, cells := bigLegalDesign(5000, 7)
	benchPlace(b, d, cells, Options{Passes: 1, Workers: 1})
}

// BenchmarkDetailPassWarm measures cDP in the regime the flow leaves it
// in: from a layout two passes have already improved (untimed), four more
// passes, of which the first prices everything and the rest only what
// the accepted moves touched.
func BenchmarkDetailPassWarm(b *testing.B) {
	d, cells := gpLikeDesign(5000, 7)
	if _, err := Place(d, cells, Options{Passes: 2, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	benchPlace(b, d, cells, Options{Passes: 4, Workers: 1})
}

// BenchmarkDetailPassECO measures cDP as core.PlaceECO runs it: the
// deeper ECO settings over the pinned test's active subset, the rest of
// the design frozen into obstacles.
func BenchmarkDetailPassECO(b *testing.B) {
	d, cells := bigLegalDesign(5000, 7)
	opt := ecoOptions
	opt.Workers = 1
	benchPlace(b, d, ecoSubset(d, cells), opt)
}

// TestSetupOverLentViewAllocs: with the view lent, cDP set-up builds
// nothing per pin, only its per-cell and per-net bookkeeping (segment and
// ISM lists, region maps, snapshots, net stamps). Doubling every net's
// pins must therefore leave what set-up allocates where it was: the
// growth is held under a quarter of the growth of Compile, whose arrays
// are what a private pin view would copy.
func TestSetupOverLentViewAllocs(t *testing.T) {
	allocated := func(f func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	measure := func(d *netlist.Design, cells []int) (compile, setup int64) {
		var cv *netlist.Compiled
		compile = allocated(func() { cv = d.Compile() })
		opt := Options{Workers: 1}
		opt.defaults()
		setup = allocated(func() {
			if _, err := newPlacer(cv, cells, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d pins: Compile %d B, cDP set-up over the lent view %d B", len(d.Pins), compile, setup)
		return compile, setup
	}
	d, cells := bigLegalDesign(5000, 7)
	compile1, setup1 := measure(d, cells)
	for ni := range d.Nets {
		for _, pi := range slices.Clone(d.Nets[ni].Pins) {
			d.Connect(d.Pins[pi].Cell, ni, d.Pins[pi].Ox, d.Pins[pi].Oy)
		}
	}
	compile2, setup2 := measure(d, cells)
	if setup1 >= compile1 {
		t.Errorf("cDP set-up allocates %d B, Compile %d B", setup1, compile1)
	}
	if grew, limit := setup2-setup1, (compile2-compile1)/4; grew >= limit {
		t.Errorf("doubling the pins grew cDP set-up by %d B, want under %d B (a quarter of Compile's growth)", grew, limit)
	}
}

// benchPlace times cDP over a lent view, as the flow runs it, from the
// same starting layout every iteration.
func benchPlace(b *testing.B, d *netlist.Design, cells []int, opt Options) {
	cv := d.Compile()
	saveX := make([]float64, len(d.Cells))
	saveY := make([]float64, len(d.Cells))
	for i := range d.Cells {
		saveX[i], saveY[i] = d.Cells[i].X, d.Cells[i].Y
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range d.Cells {
			d.Cells[i].X, d.Cells[i].Y = saveX[i], saveY[i]
		}
		if _, err := PlaceCompiled(cv, cells, opt); err != nil {
			b.Fatal(err)
		}
	}
}
