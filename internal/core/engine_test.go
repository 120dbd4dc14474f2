package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// mustPlaceGlobal runs PlaceGlobal and fails the test on a
// configuration error (the tests here all use valid configurations).
func mustPlaceGlobal(tb testing.TB, cv *netlist.Compiled, idx []int, opt Options, stage string, lambdaInit float64) Result {
	tb.Helper()
	res, err := PlaceGlobal(cv, idx, opt, stage, lambdaInit)
	if err != nil {
		tb.Fatalf("PlaceGlobal(%s): %v", stage, err)
	}
	return res
}

// testCircuit builds a clustered synthetic circuit: nCells std cells in
// clusters with local nets plus global nets and a pad ring.
func testCircuit(nCells int, seed int64) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	// Size region for ~70% utilization with 2x1.5 average cells.
	area := float64(nCells) * 3.0 / 0.7
	side := math.Ceil(math.Sqrt(area))
	d := netlist.New("test", geom.Rect{Hx: side, Hy: side})
	var cells []int
	for i := 0; i < nCells; i++ {
		w := 1.5 + rng.Float64()
		cells = append(cells, d.AddCell(netlist.Cell{
			W: w, H: 1.5,
			X: rng.Float64() * side, Y: rng.Float64() * side,
		}))
	}
	var pads []int
	for i := 0; i < 8; i++ {
		ang := 2 * math.Pi * float64(i) / 8
		pads = append(pads, d.AddCell(netlist.Cell{
			W: 1, H: 1,
			X:    side/2 + (side/2-0.5)*math.Cos(ang),
			Y:    side/2 + (side/2-0.5)*math.Sin(ang),
			Kind: netlist.Pad, Fixed: true,
		}))
	}
	// Clustered connectivity: consecutive index ranges share nets.
	clusterSize := 10
	for c := 0; c*clusterSize < nCells; c++ {
		base := c * clusterSize
		for k := 0; k < clusterSize; k++ {
			ni := d.AddNet("", 1)
			deg := 2 + rng.Intn(3)
			for p := 0; p < deg; p++ {
				d.Connect(cells[base+rng.Intn(min(clusterSize, nCells-base))], ni, 0, 0)
			}
		}
	}
	// Sparse global nets and pad nets.
	for k := 0; k < nCells/10; k++ {
		ni := d.AddNet("", 1)
		d.Connect(cells[rng.Intn(nCells)], ni, 0, 0)
		d.Connect(cells[rng.Intn(nCells)], ni, 0, 0)
	}
	for _, p := range pads {
		ni := d.AddNet("", 1)
		d.Connect(p, ni, 0, 0)
		d.Connect(cells[rng.Intn(nCells)], ni, 0, 0)
	}
	return d
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestInsertFillers(t *testing.T) {
	d := testCircuit(200, 1)
	movable := d.MovableArea()
	free := d.Region.Area()
	for i := range d.Cells {
		if c := &d.Cells[i]; c.Fixed {
			free -= c.Rect().Intersect(d.Region).Area()
		}
	}
	cells := len(d.Cells)
	cv := d.Compile()
	fill := InsertFillers(cv, 7)
	if len(fill) == 0 {
		t.Fatal("no fillers inserted in under-utilized design")
	}
	if len(d.Cells) != cells {
		t.Fatalf("the design grew from %d to %d cells", cells, len(d.Cells))
	}
	got := 0.0
	for _, fi := range fill {
		got += cv.CellW[fi] * cv.CellH[fi]
	}
	want := d.TargetDensity*free - movable
	if slack := cv.CellW[fill[0]]*cv.CellH[fill[0]] + 1; math.Abs(got-want) > 0.02*want+slack {
		t.Errorf("filler area %v, want ~%v", got, want)
	}
	for _, fi := range fill {
		if !cv.Filler[fi] || fi < cells {
			t.Fatalf("entry %d is not a filler after the design's %d cells", fi, cells)
		}
		if r := geom.NewRectCenter(cv.PosX[fi], cv.PosY[fi], cv.CellW[fi], cv.CellH[fi]); !d.Region.ContainsRect(r) {
			t.Errorf("filler %d outside region: %v", fi, r)
		}
	}
}

func TestInsertFillersNoopWhenFull(t *testing.T) {
	d := netlist.New("full", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell(netlist.Cell{W: 10, H: 10, X: 5, Y: 5})
	if fill := InsertFillers(d.Compile(), 1); fill != nil {
		t.Errorf("inserted %d fillers into a full design", len(fill))
	}
}

// TestInsertFillersGrowsOnce checks that InsertFillers grows the view's
// arrays at most once: to exactly the cells plus fillers, which do not
// fit the capacity of a fresh view, and not at all when they do (a
// second insertion after DropFillers). Appending one filler at a time
// would double them several times.
func TestInsertFillersGrowsOnce(t *testing.T) {
	d := testCircuit(2000, 1)
	cv := d.Compile()
	before := cap(cv.PosX)
	fill := InsertFillers(cv, 7)
	if len(fill) == 0 {
		t.Fatal("no fillers inserted in an under-utilized design")
	}
	for name, c := range map[string]int{"PosX": cap(cv.PosX), "CellW": cap(cv.CellW), "Filler": cap(cv.Filler), "CellNetOff": cap(cv.CellNetOff) - 1} {
		if c != len(cv.PosX) {
			t.Errorf("%s grew from capacity %d to %d for %d entries, want exactly %d",
				name, before, c, len(cv.PosX), len(cv.PosX))
		}
	}
	cv.DropFillers()
	before = cap(cv.PosX)
	InsertFillers(cv, 7)
	if got := cap(cv.PosX); got != before {
		t.Errorf("re-inserting fillers moved the capacity from %d to %d", before, got)
	}
}

func TestPlaceGlobalReducesOverflow(t *testing.T) {
	d := testCircuit(400, 2)
	// Cluster everything at the center (a caricature of v_mIP).
	c := d.Region.Center()
	for _, ci := range d.Movable() {
		d.Cells[ci].X = c.X
		d.Cells[ci].Y = c.Y
	}
	cv := d.Compile()
	idx := append(d.Movable(), InsertFillers(cv, 3)...)
	opt := Options{MaxIters: 800, GridM: 32}
	res := mustPlaceGlobal(t, cv, d.Movable(), opt, "mGP", 0)
	if res.Stop != StopTargetOverflow {
		t.Fatalf("placement stopped by %s, want %s", res.Stop, StopTargetOverflow)
	}
	if res.Overflow > 0.11 {
		t.Errorf("final overflow = %v, want <= 0.10 (+eps)", res.Overflow)
	}
	if res.Iterations >= 800 {
		t.Errorf("did not converge within 800 iterations")
	}
	// Every cell and filler inside the region.
	for _, ci := range idx {
		if !d.Region.ContainsRect(geom.NewRectCenter(cv.PosX[ci], cv.PosY[ci], cv.CellW[ci], cv.CellH[ci])) {
			t.Errorf("cell %d escaped region", ci)
			break
		}
	}
}

func TestPlaceGlobalKeepsWirelengthReasonable(t *testing.T) {
	d := testCircuit(400, 4)
	idx := d.Movable()
	// Random start: GP must both spread and not blow up wirelength
	// relative to the random layout.
	randomHPWL := d.HPWL()
	cv := d.Compile()
	InsertFillers(cv, 3)
	res := mustPlaceGlobal(t, cv, idx, Options{MaxIters: 800, GridM: 32}, "mGP", 0)
	if res.Stop == StopDiverged {
		t.Fatal("diverged")
	}
	if res.HPWL > randomHPWL {
		t.Errorf("placed HPWL %v worse than random %v", res.HPWL, randomHPWL)
	}
}

// TestTraceRecordsProgress holds the trace to one sample per iteration
// that ran, whichever test stopped the stage: an unreachable target
// stops it on stall, and the iteration that fired the test counts too.
func TestTraceRecordsProgress(t *testing.T) {
	for _, tc := range []struct {
		stop string
		opt  Options
	}{
		{StopTargetOverflow, Options{MaxIters: 300, GridM: 32}},
		{StopStall, Options{MaxIters: 1000, GridM: 32, TargetOverflow: 1e-9}},
	} {
		t.Run(tc.stop, func(t *testing.T) {
			d := testCircuit(200, 5)
			cv := d.Compile()
			InsertFillers(cv, 3)
			tr := &Trace{}
			tc.opt.Telemetry = telemetry.New(tr)
			res := mustPlaceGlobal(t, cv, d.Movable(), tc.opt, "mGP", 0)
			if res.Stop != tc.stop {
				t.Fatalf("stage stopped on %s, want %s", res.Stop, tc.stop)
			}
			if len(tr.Samples) != res.Iterations {
				t.Errorf("trace has %d samples, result says %d iterations", len(tr.Samples), res.Iterations)
			}
			if len(tr.Stage("mGP")) != len(tr.Samples) {
				t.Error("stage filter lost samples")
			}
			// Overflow at the end below overflow at the start.
			first, last := tr.Samples[0], tr.Samples[len(tr.Samples)-1]
			if last.Overflow >= first.Overflow {
				t.Errorf("overflow did not fall: %v -> %v", first.Overflow, last.Overflow)
			}
		})
	}
}

func TestMixedSizeMacrosDoNotOscillate(t *testing.T) {
	d := testCircuit(300, 7)
	rng := rand.New(rand.NewSource(8))
	// Add movable macros connected into the netlist.
	var macros []int
	for i := 0; i < 4; i++ {
		mi := d.AddCell(netlist.Cell{
			W: d.Region.W() / 6, H: d.Region.H() / 6,
			X: d.Region.Center().X, Y: d.Region.Center().Y,
			Kind: netlist.Macro,
		})
		macros = append(macros, mi)
		for k := 0; k < 5; k++ {
			ni := d.AddNet("", 1)
			d.Connect(mi, ni, 0, 0)
			d.Connect(rng.Intn(300), ni, 0, 0)
		}
	}
	cv := d.Compile()
	InsertFillers(cv, 3)
	res := mustPlaceGlobal(t, cv, d.Movable(), Options{MaxIters: 900, GridM: 32}, "mGP", 0)
	if res.Stop == StopDiverged {
		t.Fatal("mixed-size placement diverged")
	}
	if res.Overflow > 0.15 {
		t.Errorf("mixed-size overflow = %v", res.Overflow)
	}
	// Macros spread apart rather than stacked: pairwise center distance
	// above half a macro width.
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			a, b := &d.Cells[macros[i]], &d.Cells[macros[j]]
			dist := math.Hypot(a.X-b.X, a.Y-b.Y)
			if dist < a.W/2 {
				t.Errorf("macros %d and %d still stacked (dist %v)", i, j, dist)
			}
		}
	}
}

func TestDisablePreconditionerDegrades(t *testing.T) {
	build := func() *netlist.Compiled {
		d := testCircuit(200, 9)
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < 3; i++ {
			mi := d.AddCell(netlist.Cell{
				W: d.Region.W() / 5, H: d.Region.H() / 5,
				X: d.Region.Center().X, Y: d.Region.Center().Y,
				Kind: netlist.Macro,
			})
			for k := 0; k < 4; k++ {
				ni := d.AddNet("", 1)
				d.Connect(mi, ni, 0, 0)
				d.Connect(rng.Intn(200), ni, 0, 0)
			}
		}
		cv := d.Compile()
		InsertFillers(cv, 3)
		return cv
	}
	cv1 := build()
	with := mustPlaceGlobal(t, cv1, cv1.Design().Movable(), Options{MaxIters: 600, GridM: 32}, "mGP", 0)
	cv2 := build()
	without := mustPlaceGlobal(t, cv2, cv2.Design().Movable(), Options{MaxIters: 600, GridM: 32, DisablePrecond: true}, "mGP", 0)
	// The unpreconditioned run must be clearly worse: diverged, not
	// converged, or much longer wirelength (Sec. V-D reports failures on
	// 9/16 benchmarks and +24.63% wirelength on the rest).
	degraded := without.Stop == StopDiverged ||
		without.Overflow > 2*math.Max(with.Overflow, 0.05) ||
		without.HPWL > 1.15*with.HPWL ||
		without.Iterations >= 600 && with.Iterations < 600
	if !degraded {
		t.Errorf("no degradation without preconditioner: with=%+v without=%+v", with, without)
	}
}

func TestPlaceGlobalEmptyMovable(t *testing.T) {
	d := netlist.New("empty", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell(netlist.Cell{W: 2, H: 2, X: 5, Y: 5, Fixed: true})
	res := mustPlaceGlobal(t, d.Compile(), nil, Options{}, "mGP", 0)
	if res.Stop != StopTargetOverflow || res.Iterations != 0 {
		t.Errorf("empty placement: %+v", res)
	}
}

// TestTimingBreakdownPopulated: a global placement's Fig. 7 breakdown is
// its kernel spans, which PlaceGlobal records on the caller's recorder.
func TestTimingBreakdownPopulated(t *testing.T) {
	d := testCircuit(200, 11)
	cv := d.Compile()
	InsertFillers(cv, 3)
	rec := telemetry.New()
	mustPlaceGlobal(t, cv, d.Movable(), Options{MaxIters: 100, GridM: 32, TargetOverflow: 0.5, Telemetry: rec}, "mGP", 0)
	den, wl := rec.SpanTime("mGP", "density"), rec.SpanTime("mGP", "wirelength")
	if den <= 0 || wl <= 0 {
		t.Errorf("timing breakdown empty: density %v, wirelength %v", den, wl)
	}
	if poisson := rec.SpanTime("mGP", poissonSpan); poisson <= 0 || poisson > den {
		t.Errorf("Poisson span %v, want positive and within the density span %v", poisson, den)
	}
}

// TestChargeUnitPerStage pins the preconditioner's charge q_i per stage.
// A flat stage takes the paper's unit, the cell's area, so its diagonal
// |E_i| + λq_i at a fixed λ is the same bits on a 32 and a 64 grid. Every
// mGP stage of a V-cycle keeps the area per bin area, a departure from
// the paper (DESIGN.md, Deviations), and the flat flow's mGP does not.
func TestChargeUnitPerStage(t *testing.T) {
	const lambda = 0.37
	d := testCircuit(2000, 11)
	cv := d.Compile()
	idx := append(d.Movable(), InsertFillers(cv, 3)...)
	var ref []float64
	for _, m := range []int{32, 64} {
		e := mustEngine(t, cv, idx, Options{GridM: m}, telemetry.New())
		for k := range idx {
			p := precondDiag(e.degree[k], e.qNorm[k], lambda)
			if m == 32 {
				ref = append(ref, p)
			} else if math.Float64bits(p) != math.Float64bits(ref[k]) {
				t.Fatalf("cell %d: diagonal %v on the 64 grid, %v on the 32 grid", idx[k], p, ref[k])
			}
		}
	}

	for _, levels := range []int{1, 3} {
		stages := 0
		fo := mlFlowOpts(1)
		fo.Levels = levels
		fo.gpHook = func(s gpStage, done bool) {
			if !done || !strings.HasPrefix(s.name, "mGP") {
				return
			}
			stages++
			e := s.eng
			binArea := e.dm.Grid.BinArea()
			for k, ci := range s.idx {
				want := s.cv.CellW[ci] * s.cv.CellH[ci]
				if levels > 1 {
					want /= binArea
				}
				if math.Float64bits(e.qNorm[k]) != math.Float64bits(want) {
					t.Fatalf("levels %d, %s: cell %d has charge %v, want %v", levels, s.name, ci, e.qNorm[k], want)
				}
			}
		}
		if _, err := Place(synth.Generate(mlSpec()), fo); err != nil {
			t.Fatal(err)
		}
		if want := levels; stages != want {
			t.Errorf("levels %d: %d mGP stages checked, want %d", levels, stages, want)
		}
	}
}

// TestStopOverflowIsTheTestedTau: Result.StopOverflow is the τ of the
// stage's last iteration, the one its stop test read, and a stage that
// stops on target-overflow read it at or below the target.
func TestStopOverflowIsTheTestedTau(t *testing.T) {
	d := testCircuit(300, 12)
	cv := d.Compile()
	InsertFillers(cv, 3)
	tr := &Trace{}
	res := mustPlaceGlobal(t, cv, d.Movable(), Options{GridM: 32, Telemetry: telemetry.New(tr)}, "mGP", 0)
	last := tr.Stage("mGP")[res.Iterations-1]
	if res.Stop != StopTargetOverflow || res.StopOverflow != last.Overflow || res.StopOverflow > 0.10 {
		t.Errorf("stop %s at tested tau %v (last sample %v), adopted tau %v", res.Stop, res.StopOverflow, last.Overflow, res.Overflow)
	}
}
