package core

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/telemetry"
)

// mustPlaceGlobal runs PlaceGlobal and fails the test on a
// configuration error (the tests here all use valid configurations).
func mustPlaceGlobal(tb testing.TB, d *netlist.Design, idx []int, opt Options, stage string, lambdaInit float64) Result {
	tb.Helper()
	res, err := PlaceGlobal(d, idx, opt, stage, lambdaInit)
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
	fill := InsertFillers(d, 7)
	if len(fill) == 0 {
		t.Fatal("no fillers inserted in under-utilized design")
	}
	got := 0.0
	for _, fi := range fill {
		got += d.Cells[fi].Area()
	}
	want := d.TargetDensity*free - movable
	if math.Abs(got-want) > 0.02*want+fillerSlack(d) {
		t.Errorf("filler area %v, want ~%v", got, want)
	}
	for _, fi := range fill {
		c := &d.Cells[fi]
		if c.Kind != netlist.Filler {
			t.Fatal("non-filler returned")
		}
		if !d.Region.ContainsRect(c.Rect()) {
			t.Errorf("filler %d outside region: %v", fi, c.Rect())
		}
	}
}

// fillerSlack is one filler cell of tolerance from the floor division.
func fillerSlack(d *netlist.Design) float64 {
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.Filler {
			return d.Cells[i].Area() + 1
		}
	}
	return 1
}

func TestInsertFillersNoopWhenFull(t *testing.T) {
	d := netlist.New("full", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell(netlist.Cell{W: 10, H: 10, X: 5, Y: 5})
	if fill := InsertFillers(d, 1); fill != nil {
		t.Errorf("fillers inserted into a full design: %d", len(fill))
	}
}

// TestInsertFillersGrowsOnce checks that InsertFillers grows d.Cells at
// most once: to exactly the cells plus fillers when they do not fit the
// capacity, and not at all when they do (a level's second insertion
// after RemoveFillers). Appending one filler at a time would double the
// slice several times.
func TestInsertFillersGrowsOnce(t *testing.T) {
	d := testCircuit(2000, 1)
	d.Cells = d.Cells[:len(d.Cells):len(d.Cells)] // full, as a fresh clone is
	before := cap(d.Cells)
	fill := InsertFillers(d, 7)
	if len(fill) == 0 {
		t.Fatal("no fillers inserted in an under-utilized design")
	}
	if got := cap(d.Cells); got != len(d.Cells) {
		t.Errorf("cells grew from capacity %d to %d for %d cells, want exactly %d",
			before, got, len(d.Cells), len(d.Cells))
	}
	d.RemoveFillers()
	before = cap(d.Cells)
	InsertFillers(d, 7)
	if got := cap(d.Cells); got != before {
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
	InsertFillers(d, 3)
	idx := d.Movable()
	opt := Options{MaxIters: 800, GridM: 32}
	res := mustPlaceGlobal(t, d, idx, opt, "mGP", 0)
	if res.Stop != StopTargetOverflow {
		t.Fatalf("placement stopped by %s, want %s", res.Stop, StopTargetOverflow)
	}
	if res.Overflow > 0.11 {
		t.Errorf("final overflow = %v, want <= 0.10 (+eps)", res.Overflow)
	}
	if res.Iterations >= 800 {
		t.Errorf("did not converge within 800 iterations")
	}
	// Every cell inside the region.
	for _, ci := range idx {
		if !d.Region.ContainsRect(d.Cells[ci].Rect()) {
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
	InsertFillers(d, 3)
	res := mustPlaceGlobal(t, d, d.Movable(), Options{MaxIters: 800, GridM: 32}, "mGP", 0)
	if res.Stop == StopDiverged {
		t.Fatal("diverged")
	}
	if res.HPWL > randomHPWL {
		t.Errorf("placed HPWL %v worse than random %v", res.HPWL, randomHPWL)
	}
	_ = idx
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
			InsertFillers(d, 3)
			tr := &Trace{}
			tc.opt.Telemetry = telemetry.New(tr)
			res := mustPlaceGlobal(t, d, d.Movable(), tc.opt, "mGP", 0)
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
	InsertFillers(d, 3)
	res := mustPlaceGlobal(t, d, d.Movable(), Options{MaxIters: 900, GridM: 32}, "mGP", 0)
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
	build := func() *netlist.Design {
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
		InsertFillers(d, 3)
		return d
	}
	d1 := build()
	with := mustPlaceGlobal(t, d1, d1.Movable(), Options{MaxIters: 600, GridM: 32}, "mGP", 0)
	d2 := build()
	without := mustPlaceGlobal(t, d2, d2.Movable(), Options{MaxIters: 600, GridM: 32, DisablePrecond: true}, "mGP", 0)
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
	res := mustPlaceGlobal(t, d, nil, Options{}, "mGP", 0)
	if res.Stop != StopTargetOverflow || res.Iterations != 0 {
		t.Errorf("empty placement: %+v", res)
	}
}

func TestTimingBreakdownPopulated(t *testing.T) {
	d := testCircuit(200, 11)
	InsertFillers(d, 3)
	res := mustPlaceGlobal(t, d, d.Movable(), Options{MaxIters: 100, GridM: 32, TargetOverflow: 0.5}, "mGP", 0)
	if res.DensityTime <= 0 || res.WirelengthTime <= 0 {
		t.Errorf("timing breakdown empty: %+v", res)
	}
	if res.Total < res.DensityTime+res.WirelengthTime {
		t.Errorf("total %v below parts %v + %v", res.Total, res.DensityTime, res.WirelengthTime)
	}
}
