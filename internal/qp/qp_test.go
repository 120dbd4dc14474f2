package qp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/sparse"
	"eplace/internal/synth"
)

// referencePlace is the oracle the compiled-view model is checked
// against: the same B2B rounds stamped the way this package first did
// it, walking d.Nets -> d.Pins -> d.Cells through d.PinPos, run for a
// fixed number of rounds to a tight tolerance.
func referencePlace(d *netlist.Design, idx []int, rounds int, tol float64) {
	n := len(idx)
	slot := make([]int, len(d.Cells))
	for i := range slot {
		slot[i] = -1
	}
	for k, ci := range idx {
		slot[ci] = k
	}
	center := d.Region.Center()
	for k, ci := range idx {
		c := &d.Cells[ci]
		frac := float64(k) / float64(n)
		c.X = center.X + (frac-0.5)*1e-3*d.Region.W()
		c.Y = center.Y + (math.Mod(frac*617.0, 1.0)-0.5)*1e-3*d.Region.H()
	}
	for round := 0; round < rounds; round++ {
		referenceAxis(d, idx, slot, tol, true)
		referenceAxis(d, idx, slot, tol, false)
	}
	for _, ci := range idx {
		c := &d.Cells[ci]
		p := geom.ClampPoint(geom.Point{X: c.X, Y: c.Y}, c.W, c.H, d.Region)
		c.X, c.Y = p.X, p.Y
	}
}

func referenceAxis(d *netlist.Design, idx, slot []int, tol float64, xAxis bool) {
	n := len(idx)
	var b sparse.Assembler
	b.Reset(n)
	rhs := make([]float64, n)
	minDist := 1e-4 * math.Max(d.Region.W(), d.Region.H())
	coord := func(pi int) float64 {
		if xAxis {
			return d.PinPos(pi).X
		}
		return d.PinPos(pi).Y
	}
	offset := func(pi int) float64 {
		if xAxis {
			return d.Pins[pi].Ox
		}
		return d.Pins[pi].Oy
	}
	stamp := func(p, q int, w float64) {
		ps, qs := -1, -1
		if pc := d.Pins[p].Cell; pc >= 0 {
			ps = slot[pc]
		}
		if qc := d.Pins[q].Cell; qc >= 0 {
			qs = slot[qc]
		}
		po, qo := offset(p), offset(q)
		switch {
		case ps >= 0 && qs >= 0:
			b.AddSym(ps, qs, w)
			rhs[ps] += w * (qo - po)
			rhs[qs] += w * (po - qo)
		case ps >= 0:
			b.AddDiag(ps, w)
			rhs[ps] += w * (coord(q) - po)
		case qs >= 0:
			b.AddDiag(qs, w)
			rhs[qs] += w * (coord(p) - qo)
		}
	}
	for ni := range d.Nets {
		net := &d.Nets[ni]
		deg := len(net.Pins)
		if deg < 2 {
			continue
		}
		loPin, hiPin := -1, -1
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, pi := range net.Pins {
			v := coord(pi)
			if v < lo {
				lo, loPin = v, pi
			}
			if v > hi {
				hi, hiPin = v, pi
			}
		}
		if loPin == hiPin {
			hiPin = net.Pins[0]
			if hiPin == loPin {
				hiPin = net.Pins[1]
			}
		}
		base := 2 * net.EffWeight() / float64(deg-1)
		for _, pi := range net.Pins {
			for _, bp := range [2]int{loPin, hiPin} {
				if pi == bp || (pi == loPin && bp == hiPin) {
					continue
				}
				stamp(pi, bp, base/math.Max(math.Abs(coord(pi)-coord(bp)), minDist))
			}
		}
		stamp(loPin, hiPin, base/math.Max(hi-lo, minDist))
	}
	cv := d.Region.Center().Y
	if xAxis {
		cv = d.Region.Center().X
	}
	x := make([]float64, n)
	for k, ci := range idx {
		b.AddDiag(k, centerAnchor)
		rhs[k] += centerAnchor * cv
		x[k] = d.Cells[ci].Y
		if xAxis {
			x[k] = d.Cells[ci].X
		}
	}
	new(sparse.Solver).Solve(b.Build(), rhs, x, tol, 300)
	for k, ci := range idx {
		if xAxis {
			d.Cells[ci].X = x[k]
		} else {
			d.Cells[ci].Y = x[k]
		}
	}
}

// testDesigns are three 2 000-cell circuits: standard cells only, with
// fixed blocks, and with movable macros and off-center pins.
func testDesigns() []*netlist.Design {
	return []*netlist.Design{
		synth.Generate(synth.Spec{Name: "qp-a", NumCells: 2000, Seed: 1}),
		synth.Generate(synth.Spec{Name: "qp-b", NumCells: 2000, NumFixedMacros: 8, Seed: 2}),
		synth.Generate(synth.Spec{Name: "qp-c", NumCells: 2000, NumMovableMacros: 8, TargetDensity: 0.8, Seed: 3}),
	}
}

// referenceHPWLTol bounds how far Place's wirelength may sit from the
// 6-round, 1e-6 reference. With the reference's round count and
// tolerance the two agree to 1e-9 (same model, another summation
// order); stopping on stalled HPWL at a 1e-3 residual leaves mIP's own
// wirelength 0.4-1.3% higher on these three.
const referenceHPWLTol = 0.02

func TestPlaceMatchesReference(t *testing.T) {
	for _, d := range testDesigns() {
		ref := d.Clone()
		referencePlace(ref, ref.Movable(), 6, 1e-6)
		res := Place(d, d.Movable())
		got, want := d.HPWL(), ref.HPWL()
		if rel := math.Abs(got-want) / want; rel > referenceHPWLTol {
			t.Errorf("%s: HPWL %v vs reference %v (%.2e relative, %d rounds, %d CG iterations)",
				d.Name, got, want, rel, res.Rounds, res.CGIterations)
		}
		if last := res.HPWL[len(res.HPWL)-1]; res.Rounds != len(res.HPWL) || last < 0.9*got || last > got*1.000001 {
			t.Errorf("%s: result reports %d rounds, HPWL %v; design has %v", d.Name, res.Rounds, res.HPWL, got)
		}
	}
}

// link joins cells a and b by a two-pin net of weight w.
func link(d *netlist.Design, a, b int, w float64) {
	ni := d.AddNet("", w)
	d.Connect(a, ni, 0, 0)
	d.Connect(b, ni, 0, 0)
}

func TestStopsWhenHPWLStalls(t *testing.T) {
	// A chain between two pads is at its minimum wirelength as soon as it
	// is ordered, which the first round achieves.
	d := netlist.New("chain", geom.Rect{Hx: 40, Hy: 10})
	prev := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 5, Fixed: true, Kind: netlist.Pad})
	var cells []int
	for i := 0; i < 3; i++ {
		c := d.AddCell(netlist.Cell{W: 1, H: 1})
		link(d, prev, c, 1)
		cells, prev = append(cells, c), c
	}
	link(d, prev, d.AddCell(netlist.Cell{W: 1, H: 1, X: 40, Y: 5, Fixed: true, Kind: netlist.Pad}), 1)
	res := Place(d, cells)
	if res.Stop != StopHPWLStall || res.Rounds >= maxRounds || len(res.HPWL) != res.Rounds {
		t.Errorf("chain: %+v, want hpwl-stall before round %d", res, maxRounds)
	}
}

func TestStopsAtRoundCap(t *testing.T) {
	// One cell between a pad at 0 and a pad at 100 that pulls 1.6 times
	// as hard: the weighted median is the heavy pad, and the reweighted
	// least-squares rounds close the remaining distance u to it only by
	// u' = 100u / (u + 1.6(100-u)) each, so HPWL = 100 + 0.6u keeps
	// improving by more than 1% through all six.
	d := netlist.New("tug", geom.Rect{Hx: 100, Hy: 10})
	c := d.AddCell(netlist.Cell{W: 1, H: 1})
	link(d, c, d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 5, Fixed: true, Kind: netlist.Pad}), 1)
	link(d, c, d.AddCell(netlist.Cell{W: 1, H: 1, X: 100, Y: 5, Fixed: true, Kind: netlist.Pad}), 1.6)
	res := Place(d, []int{c})
	if res.Stop != StopRoundCap || res.Rounds != maxRounds {
		t.Fatalf("tug of war: %+v, want round-cap at %d", res, maxRounds)
	}
	for k := 1; k < len(res.HPWL); k++ {
		if res.HPWL[k] > (1-stallFrac)*res.HPWL[k-1] {
			t.Errorf("round %d improved HPWL %v -> %v, less than the stall threshold", k+1, res.HPWL[k-1], res.HPWL[k])
		}
	}
}

func TestSolverFailureKeepsFinitePositions(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "qp-nan", NumCells: 300})
	d.Nets[len(d.Nets)/2].Weight = math.NaN()
	idx := d.Movable()
	res := Place(d, idx)
	if res.Stop != StopSolverFailed || res.Rounds != 0 {
		t.Errorf("NaN net weight: %+v, want solver-failed in round 1", res)
	}
	for _, ci := range idx {
		c := &d.Cells[ci]
		if math.IsNaN(c.X+c.Y) || math.IsInf(c.X+c.Y, 0) || !d.Region.ContainsRect(c.Rect()) {
			t.Fatalf("cell %d at (%v, %v)", ci, c.X, c.Y)
		}
	}
}

// mIP's output is a pure function of the design.
func TestPlaceBitwiseRepeatable(t *testing.T) {
	d1 := testDesigns()[2]
	d2 := d1.Clone()
	Place(d1, d1.Movable())
	Place(d2, d2.Movable())
	for i := range d1.Cells {
		if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
			t.Fatalf("cell %d: (%v, %v) vs (%v, %v)", i, d1.Cells[i].X, d1.Cells[i].Y, d2.Cells[i].X, d2.Cells[i].Y)
		}
	}
}

// One placement shares one set of buffers between all its solves: the
// budget is about twice what Place allocates on this design (1.5 MB in
// 50 mallocs; the triplet-sort path took 59.9 MB in 1 485), so a return
// to per-solve allocation trips it.
func TestPlaceAllocationBudget(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "qp-alloc", NumCells: 2000})
	idx := d.Movable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Place(d, idx)
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("qp.Place on %d cells: %d bytes in %d mallocs", len(idx), bytes, mallocs)
	if bytes > 3<<20 || mallocs > 100 {
		t.Errorf("qp.Place allocated %d bytes in %d mallocs, budget 3 MiB in 100", bytes, mallocs)
	}
}

func TestChainBetweenPads(t *testing.T) {
	// pad0(0) - c0 - c1 - c2 - pad1(40): cells end ordered inside [0, 40].
	d := netlist.New("chain", geom.Rect{Hx: 40, Hy: 10})
	pad0 := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 5, Fixed: true, Kind: netlist.Pad})
	pad1 := d.AddCell(netlist.Cell{W: 1, H: 1, X: 40, Y: 5, Fixed: true, Kind: netlist.Pad})
	var cells []int
	for i := 0; i < 3; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{W: 1, H: 1, Y: 5}))
	}
	link := func(a, b int) {
		ni := d.AddNet("", 1)
		d.Connect(a, ni, 0, 0)
		d.Connect(b, ni, 0, 0)
	}
	link(pad0, cells[0])
	link(cells[0], cells[1])
	link(cells[1], cells[2])
	link(cells[2], pad1)
	Place(d, cells)
	xs := []float64{d.Cells[cells[0]].X, d.Cells[cells[1]].X, d.Cells[cells[2]].X}
	if !(xs[0] < xs[1] && xs[1] < xs[2]) {
		t.Errorf("chain not ordered: %v", xs)
	}
	if xs[0] < 0.5 || xs[2] > 39.5 {
		t.Errorf("chain endpoints out of span: %v", xs)
	}
	// Middle cell near the center.
	if math.Abs(xs[1]-20) > 6 {
		t.Errorf("middle cell at %v, want near 20", xs[1])
	}
}

func TestStarPullsToCenterOfPads(t *testing.T) {
	d := netlist.New("star", geom.Rect{Hx: 100, Hy: 100})
	c := d.AddCell(netlist.Cell{W: 2, H: 2})
	pads := [][2]float64{{10, 10}, {90, 10}, {10, 90}, {90, 90}}
	for _, p := range pads {
		pi := d.AddCell(netlist.Cell{W: 1, H: 1, X: p[0], Y: p[1], Fixed: true, Kind: netlist.Pad})
		ni := d.AddNet("", 1)
		d.Connect(c, ni, 0, 0)
		d.Connect(pi, ni, 0, 0)
	}
	Place(d, []int{c})
	if math.Abs(d.Cells[c].X-50) > 2 || math.Abs(d.Cells[c].Y-50) > 2 {
		t.Errorf("star center at (%v, %v), want near (50, 50)", d.Cells[c].X, d.Cells[c].Y)
	}
}

func TestPlaceReducesHPWLFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := netlist.New("r", geom.Rect{Hx: 200, Hy: 200})
	var idx []int
	for i := 0; i < 100; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{
			W: 2, H: 2, X: rng.Float64() * 200, Y: rng.Float64() * 200,
		}))
	}
	// A ring of fixed pads.
	var pads []int
	for i := 0; i < 12; i++ {
		ang := 2 * math.Pi * float64(i) / 12
		pads = append(pads, d.AddCell(netlist.Cell{
			W: 1, H: 1, X: 100 + 99*math.Cos(ang), Y: 100 + 99*math.Sin(ang),
			Fixed: true, Kind: netlist.Pad,
		}))
	}
	for k := 0; k < 150; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(3)
		for p := 0; p < deg; p++ {
			d.Connect(idx[rng.Intn(len(idx))], ni, 0, 0)
		}
		if rng.Intn(4) == 0 {
			d.Connect(pads[rng.Intn(len(pads))], ni, 0, 0)
		}
	}
	before := d.HPWL()
	Place(d, idx)
	after := d.HPWL()
	if after >= 0.5*before {
		t.Errorf("quadratic placement HPWL %v not well below random %v", after, before)
	}
	// All cells inside the region.
	for _, ci := range idx {
		r := d.Cells[ci].Rect()
		if !d.Region.ContainsRect(r) {
			t.Errorf("cell %d at %v escapes region", ci, r)
		}
	}
}

func TestPinOffsetsRespected(t *testing.T) {
	// Two cells joined by pins with opposite offsets: quadratic optimum
	// aligns the pins, so centers differ by the offset difference.
	d := netlist.New("off", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell(netlist.Cell{W: 4, H: 2})
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 50, Fixed: true, Kind: netlist.Pad})
	ni := d.AddNet("", 1)
	d.Connect(a, ni, 2, 0) // pin on the right edge of a
	d.Connect(pad, ni, 0, 0)
	Place(d, []int{a})
	// Pin (a.X + 2) should coincide with pad at 50 => a.X ~ 48.
	if math.Abs(d.Cells[a].X-48) > 0.5 {
		t.Errorf("a.X = %v, want ~48", d.Cells[a].X)
	}
}

func TestNoFixedConnectivityStaysInRegion(t *testing.T) {
	// A floating clique with no pads must not blow up (anchors keep the
	// system nonsingular) and must stay inside the region.
	d := netlist.New("float", geom.Rect{Hx: 50, Hy: 50})
	var idx []int
	for i := 0; i < 5; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{W: 2, H: 2}))
	}
	ni := d.AddNet("clique", 1)
	for _, ci := range idx {
		d.Connect(ci, ni, 0, 0)
	}
	Place(d, idx)
	for _, ci := range idx {
		c := &d.Cells[ci]
		if math.IsNaN(c.X) || math.IsNaN(c.Y) {
			t.Fatalf("cell %d at NaN", ci)
		}
		if !d.Region.ContainsRect(c.Rect()) {
			t.Errorf("cell %d escapes region: %v", ci, c.Rect())
		}
	}
}

func TestEmptyMovableIsNoop(t *testing.T) {
	d := netlist.New("e", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell(netlist.Cell{W: 1, H: 1, X: 5, Y: 5, Fixed: true})
	Place(d, nil) // must not panic
}

func TestMixedSizeMacroAndCells(t *testing.T) {
	// A macro and std cells sharing nets: everything participates in
	// exactly the same way (the ePlace equalization property).
	d := netlist.New("mix", geom.Rect{Hx: 100, Hy: 100})
	mac := d.AddCell(netlist.Cell{W: 30, H: 30, Kind: netlist.Macro})
	var cells []int
	for i := 0; i < 10; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{W: 2, H: 2}))
	}
	pad := d.AddCell(netlist.Cell{W: 1, H: 1, X: 95, Y: 50, Fixed: true, Kind: netlist.Pad})
	for _, ci := range cells {
		ni := d.AddNet("", 1)
		d.Connect(mac, ni, 0, 0)
		d.Connect(ci, ni, 0, 0)
	}
	ni := d.AddNet("", 1)
	d.Connect(mac, ni, 0, 0)
	d.Connect(pad, ni, 0, 0)
	idx := append([]int{mac}, cells...)
	Place(d, idx)
	if !d.Region.ContainsRect(d.Cells[mac].Rect()) {
		t.Errorf("macro escapes region: %v", d.Cells[mac].Rect())
	}
	// Macro pulled toward the pad side.
	if d.Cells[mac].X < 50 {
		t.Errorf("macro at x=%v, want pulled toward pad at 95", d.Cells[mac].X)
	}
}

func BenchmarkPlace2000(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := netlist.New("bench", geom.Rect{Hx: 500, Hy: 500})
	var idx []int
	for i := 0; i < 2000; i++ {
		idx = append(idx, d.AddCell(netlist.Cell{W: 2, H: 2}))
	}
	for i := 0; i < 16; i++ {
		p := d.AddCell(netlist.Cell{W: 1, H: 1, X: float64(i) * 30, Y: 0, Fixed: true, Kind: netlist.Pad})
		ni := d.AddNet("", 1)
		d.Connect(p, ni, 0, 0)
		d.Connect(idx[rng.Intn(len(idx))], ni, 0, 0)
	}
	for k := 0; k < 3000; k++ {
		ni := d.AddNet("", 1)
		deg := 2 + rng.Intn(3)
		for p := 0; p < deg; p++ {
			d.Connect(idx[rng.Intn(len(idx))], ni, 0, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Place(d, idx)
	}
}

// BenchmarkAssembleB2B times building one axis's system (coordinates,
// stamps, CSR) on a 5 000-cell circuit, without the solve.
func BenchmarkAssembleB2B(b *testing.B) {
	d := synth.Generate(synth.Spec{Name: "qp-bench", NumCells: 5000, NumFixedMacros: 12})
	idx := d.Movable()
	Place(d, idx)
	m := NewModel(d.Compile(), idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.assemble(i%2 == 0, nil, centerAnchor)
	}
}
