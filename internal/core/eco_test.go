package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/detail"
	"eplace/internal/eco"
	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

func ecoSpec(name string) synth.Spec {
	return synth.Spec{Name: name, NumCells: 500, Seed: 2}
}

// blockEdit blocks a square a tenth of the region's side, off its
// center: on a placed design it evicts cells, so eGP runs.
func blockEdit(r geom.Rect) *eco.Script {
	return &eco.Script{BlockRegions: []eco.Block{{
		Lx: r.Lx + 0.3*r.W(), Ly: r.Ly + 0.3*r.H(),
		Hx: r.Lx + 0.4*r.W(), Hy: r.Ly + 0.4*r.H(),
	}}}
}

// digestOf finds one stage's golden digest.
func digestOf(t *testing.T, ds []telemetry.StageDigest, stage string) telemetry.StageDigest {
	t.Helper()
	for _, d := range ds {
		if d.Stage == stage {
			return d
		}
	}
	t.Fatalf("no %q digest in %v", stage, ds)
	return telemetry.StageDigest{}
}

// warmCopy rebuilds the design and carries over the placed positions,
// the way an ECO caller warm-starts from a previous run's output.
func warmCopy(spec synth.Spec, placed *netlist.Design) *netlist.Design {
	d := synth.Generate(spec)
	for i := range d.Cells {
		d.Cells[i].X = placed.Cells[i].X
		d.Cells[i].Y = placed.Cells[i].Y
	}
	return d
}

// TestECONoOpBitwise: an edit script that changes nothing must return
// the previous placement bit for bit — the "final" golden digest equals
// the cold flow's at every worker count.
func TestECONoOpBitwise(t *testing.T) {
	spec := ecoSpec("eco-noop")
	for _, workers := range []int{1, 2, 7} {
		cold := synth.Generate(spec)
		coldRes, err := Place(cold, FlowOptions{GP: Options{Workers: workers, MaxIters: 500}})
		if err != nil {
			t.Fatalf("workers=%d cold: %v", workers, err)
		}

		warm := warmCopy(spec, cold)
		prep, err := eco.Prepare(warm, &eco.Script{}, eco.PlanOptions{})
		if err != nil {
			t.Fatalf("workers=%d prepare: %v", workers, err)
		}
		res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d eco: %v", workers, err)
		}
		if !res.NoOp {
			t.Fatalf("workers=%d: empty edit not detected as no-op (%d active)", workers, res.ActiveCells)
		}
		cd, ed := digestOf(t, coldRes.Digests, "final"), digestOf(t, res.Digests, "final")
		if cd.Digest != ed.Digest {
			t.Fatalf("workers=%d: final digest %s != cold %s", workers, ed.Hex(), cd.Hex())
		}
		if res.HPWL != coldRes.HPWL {
			t.Fatalf("workers=%d: HPWL %v != cold %v", workers, res.HPWL, coldRes.HPWL)
		}
		for i := range warm.Cells {
			if warm.Cells[i].X != cold.Cells[i].X || warm.Cells[i].Y != cold.Cells[i].Y {
				t.Fatalf("workers=%d: cell %d moved on a no-op", workers, i)
			}
		}
	}
}

// TestECOFrozenCellsExact: cells outside the activity halo must end the
// incremental run at exactly their input positions.
func TestECOFrozenCellsExact(t *testing.T) {
	spec := ecoSpec("eco-frozen")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}

	warm := warmCopy(spec, cold)
	script := &eco.Script{AddCells: []eco.AddCell{
		{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0}},
		{Name: "eco_b", W: 2, H: 1, NetIDs: []int{1}},
	}}
	prep, err := eco.Prepare(warm, script, eco.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Plan.Frozen) == 0 {
		t.Fatalf("small edit froze nothing: %s", prep.Plan)
	}
	type pos struct{ x, y float64 }
	before := map[int]pos{}
	for _, ci := range prep.Plan.Frozen {
		before[ci] = pos{warm.Cells[ci].X, warm.Cells[ci].Y}
	}

	res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoOp || res.ActiveCells == 0 {
		t.Fatalf("insertion did not activate anything: %+v", res)
	}
	for ci, p := range before {
		if warm.Cells[ci].X != p.x || warm.Cells[ci].Y != p.y {
			t.Fatalf("frozen cell %d moved: (%v,%v) -> (%v,%v)",
				ci, p.x, p.y, warm.Cells[ci].X, warm.Cells[ci].Y)
		}
	}
	if !res.Legal {
		t.Fatal("incremental result not legal")
	}
}

// TestECOBlockedRegionEvicted: after an ECO run with a region blockage,
// no movable standard cell may overlap the blocked rectangle.
func TestECOBlockedRegionEvicted(t *testing.T) {
	spec := ecoSpec("eco-block")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}

	warm := warmCopy(spec, cold)
	r := warm.Region
	blk := eco.Block{
		Lx: r.Lx + 0.3*r.W(), Ly: r.Ly + 0.3*r.H(),
		Hx: r.Lx + 0.5*r.W(), Hy: r.Ly + 0.5*r.H(),
	}
	prep, err := eco.Prepare(warm, &eco.Script{BlockRegions: []eco.Block{blk}}, eco.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("blocked result not legal")
	}
	const eps = 1e-9
	for _, ci := range warm.Movable() {
		c := &warm.Cells[ci]
		cr := c.Rect()
		ov := cr.Intersect(blk.Rect())
		if ov.Valid() && ov.W() > eps && ov.H() > eps {
			t.Fatalf("movable cell %d (%s) overlaps the blockage: cell %v block %v",
				ci, c.Name, cr, blk.Rect())
		}
	}
}

// TestECOStageHPWLMatchesView runs one ECO-shaped GP stage — a placed
// design with a tenth of its cells active, the rest frozen, fillers in
// the whitespace — and holds every HPWL the engine produces, which it
// prices over the live nets only, to a full cv.HPWL() of the same
// positions bit for bit: the start, every iteration (read through a
// per-iteration checkpoint sink) and the stage result.
func TestECOStageHPWLMatchesView(t *testing.T) {
	spec := ecoSpec("eco-hpwl")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}
	d := warmCopy(spec, cold)
	mv := d.Movable()
	active := mv[:len(mv)/10]
	for _, ci := range mv[len(mv)/10:] {
		d.Cells[ci].Fixed = true
	}
	fillers := InsertFillers(d, 3)
	seedFillersInWhitespace(d, fillers, 4)
	idx := append(append([]int(nil), active...), fillers...)

	opt := Options{MaxIters: 40, TargetOverflow: 0.15, Workers: 2, CheckpointEvery: 1}
	opt.defaults()
	ref := d.Compile()
	start := d.Positions(idx)
	mustEngine(t, d, idx, opt, telemetry.New()).clamp(start)
	ref.SetPositions(idx, start)
	wantHPWL0 := ref.HPWL()

	iters := 0
	sink := func(gs *checkpoint.GPState) {
		if math.Float64bits(gs.HPWL0) != math.Float64bits(wantHPWL0) {
			t.Errorf("start HPWL %v, view %v", gs.HPWL0, wantHPWL0)
		}
		ref.SetPositions(idx, gs.Nesterov.U)
		if want := ref.HPWL(); math.Float64bits(gs.PrevHPWL) != math.Float64bits(want) {
			t.Errorf("iteration %d: HPWL %v, view %v", gs.Iter-1, gs.PrevHPWL, want)
		}
		iters++
	}
	cv := d.Compile()
	res, err := placeGlobal(context.Background(), gpStage{
		name: "eGP", cv: cv, idx: idx, opt: opt,
		lambdaScale: egpLambdaScale, stallIters: egpStallIters, sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 10 {
		t.Fatalf("the stage checked %d iterations, want at least 10", iters)
	}
	if h := d.HPWL(); math.Float64bits(res.HPWL) != math.Float64bits(h) {
		t.Errorf("stage HPWL %v, design %v", res.HPWL, h)
	}
	live := len(wirelength.NewCompiled(cv, idx, 1).LiveNets())
	if live == 0 || 2*live > len(d.Nets) {
		t.Errorf("%d of %d nets live: not an ECO-shaped stage", live, len(d.Nets))
	}
	t.Logf("%d iterations, %d of %d nets live", iters, live, len(d.Nets))
}

// TestECOMaxIters: GP.MaxIters bounds the eGP stage, which then reports
// the iteration cap as its stop reason.
func TestECOMaxIters(t *testing.T) {
	spec := ecoSpec("eco-iters")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}
	warm := warmCopy(spec, cold)
	prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{MaxIters: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GP.Iterations > 5 || res.GP.Stop != StopIterationCap {
		t.Errorf("eGP ran %d iterations and stopped by %q, want at most 5 and %q",
			res.GP.Iterations, res.GP.Stop, StopIterationCap)
	}
	if !res.Legal {
		t.Error("incremental result not legal")
	}
}

// TestECOHeldCellsKeepSlots: eGP runs only when a blockage evicts cells,
// and every other active cell an edit did not insert enters cDP bitwise
// at its input position.
func TestECOHeldCellsKeepSlots(t *testing.T) {
	spec := ecoSpec("eco-held")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}
	prepare := func(t *testing.T, s *eco.Script) (*netlist.Design, *eco.Plan) {
		t.Helper()
		warm := warmCopy(spec, cold)
		prep, err := eco.Prepare(warm, s, eco.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(prep.Plan.Active) == 0 {
			t.Fatalf("the edit activated nothing: %s", prep.Plan)
		}
		return warm, prep.Plan
	}
	victim := cold.Cells[cold.MovableOf(netlist.StdCell)[7]].Name
	reweight := []eco.Reweight{{NetID: 3, Weight: 4}}
	// The reweight+removal row's digests are the ones the flow gave when
	// eGP ran on every edit and its result was snapped back, under the
	// spectral32 Poisson solve (recorded on amd64 with AVX2).
	for _, tc := range []struct {
		name             string
		script           *eco.Script
		wantCDP, wantEnd string
	}{
		{"reweight", &eco.Script{ReweightNets: reweight}, "", ""},
		{"removal", &eco.Script{RemoveCells: []string{victim}}, "", ""},
		{"insertion", &eco.Script{AddCells: []eco.AddCell{{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0, 9}}}}, "", ""},
		{"reweight+removal", &eco.Script{RemoveCells: []string{victim}, ReweightNets: reweight},
			"bf5db0b640070705", "ce29f8c922b13224"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm, plan := prepare(t, tc.script)
			if len(plan.Evicted) != 0 {
				t.Fatalf("the edit evicted %d cells", len(plan.Evicted))
			}
			res, err := PlaceECO(context.Background(), warm, plan, ECOOptions{GP: Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Legal {
				t.Error("incremental result not legal")
			}
			if res.GP != (Result{}) {
				t.Errorf("GP = %+v, want zero", res.GP)
			}
			for _, st := range res.Stages {
				if st.Name == "eGP" {
					t.Errorf("Stages = %v, want no eGP", res.Stages)
				}
			}
			for _, dg := range res.Digests {
				if dg.Stage == "eGP" {
					t.Errorf("Digests = %v, want no eGP", res.Digests)
				}
			}
			if tc.wantCDP == "" {
				return
			}
			if got := digestOf(t, res.Digests, "cDP").Hex(); got != tc.wantCDP {
				t.Errorf("cDP digest %s, want %s", got, tc.wantCDP)
			}
			if got := digestOf(t, res.Digests, "final").Hex(); got != tc.wantEnd {
				t.Errorf("final digest %s, want %s", got, tc.wantEnd)
			}
		})
	}

	// A block evicts cells and runs eGP, and the reweighted net's and the
	// inserted cell's neighbors are held; what enters cDP is read between
	// placeMoved and cdp, the two halves of replaceActive.
	t.Run("block", func(t *testing.T) {
		s := blockEdit(cold.Region)
		s.ReweightNets = reweight
		s.AddCells = []eco.AddCell{{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0, 9}}}
		warm, plan := prepare(t, s)
		if len(plan.Evicted) == 0 {
			t.Fatalf("the block evicted nothing: %s", plan)
		}
		input := warm.Positions(plan.Active)
		opt := Options{Workers: 2}
		var res ECOResult
		r := newRun(context.Background(), warm, &opt, nil, &res.flowSummary)
		r.ensureRows()
		for _, ci := range plan.Frozen {
			warm.Cells[ci].Fixed = true
		}
		held, moved, err := placeMoved(r, plan, opt, &res)
		if err != nil {
			t.Fatal(err)
		}
		if res.GP.Stop == "" || len(res.Stages) != 1 || res.Stages[0].Name != "eGP" {
			t.Fatalf("eGP did not run: GP %+v, Stages %v", res.GP, res.Stages)
		}
		lost := map[int]bool{}
		for _, ci := range append(append([]int(nil), plan.Evicted...), plan.Fresh...) {
			lost[ci] = true
		}
		kept := 0
		n := len(plan.Active)
		for k, ci := range plan.Active {
			if lost[ci] {
				continue
			}
			kept++
			if c := &warm.Cells[ci]; c.X != input[k] || c.Y != input[k+n] {
				t.Errorf("cell %d enters cDP at (%v, %v), its input slot is (%v, %v)", ci, c.X, c.Y, input[k], input[k+n])
			}
		}
		if kept == 0 || kept != len(held) || len(held)+len(moved) != len(plan.Active) {
			t.Errorf("%d held and %d moved of %d active, %d outside Evicted and Fresh", len(held), len(moved), len(plan.Active), kept)
		}
		t.Logf("%d held, %d evicted, %d active", len(held), len(plan.Evicted), len(plan.Active))
	})
}

// TestECOWorkersBitwiseIdentical runs cDP's ECO configuration (the
// deeper refinement over an active subset, the rest frozen into
// obstacles) behind the whole incremental flow at several worker
// counts: one inserted cell and one blocked region must end on the same
// position bits, counters and digests at every count.
func TestECOWorkersBitwiseIdentical(t *testing.T) {
	spec := synth.Spec{Name: "eco-workers", NumCells: 800, Seed: 3}
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}
	r := cold.Region
	script := &eco.Script{
		AddCells: []eco.AddCell{{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0, 5}}},
		BlockRegions: []eco.Block{{
			Lx: r.Lx + 0.55*r.W(), Ly: r.Ly + 0.55*r.H(),
			Hx: r.Lx + 0.7*r.W(), Hy: r.Ly + 0.7*r.H(),
		}},
	}
	// counters are the fields of an ECOResult that do not time anything.
	type counters struct {
		active, frozen, iters, backtracks int
		disp, maxDisp, hpwl               float64
		legal                             bool
		dp                                detail.Result
	}
	var ref *netlist.Design
	var refCount counters
	var refDigests []telemetry.StageDigest
	for _, workers := range []int{1, 2, 7} {
		warm := warmCopy(spec, cold)
		prep, err := eco.Prepare(warm, script, eco.PlanOptions{})
		if err != nil {
			t.Fatalf("workers=%d prepare: %v", workers, err)
		}
		res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d eco: %v", workers, err)
		}
		got := counters{res.ActiveCells, res.FrozenCells, res.GP.Iterations, res.GP.Backtracks,
			res.LegalizeDisp, res.LegalizeMaxDisp, res.HPWL, res.Legal, res.DP}
		if !got.legal || got.dp.Passes == 0 || got.active == 0 || got.frozen == 0 {
			t.Fatalf("workers=%d: edit did not exercise the incremental cDP: %+v", workers, got)
		}
		if ref == nil {
			ref, refCount, refDigests = warm, got, res.Digests
			continue
		}
		if got != refCount {
			t.Errorf("workers=%d: counters %+v, workers=1 %+v", workers, got, refCount)
		}
		if len(res.Digests) != len(refDigests) {
			t.Fatalf("workers=%d: digests %v, workers=1 %v", workers, res.Digests, refDigests)
		}
		for i, dg := range res.Digests {
			if dg != refDigests[i] {
				t.Errorf("workers=%d: digest %s %s (%d iters), workers=1 %s (%d iters)",
					workers, dg.Stage, dg.Hex(), dg.Iterations, refDigests[i].Hex(), refDigests[i].Iterations)
			}
		}
		for i := range warm.Cells {
			if warm.Cells[i].X != ref.Cells[i].X || warm.Cells[i].Y != ref.Cells[i].Y {
				t.Fatalf("workers=%d: cell %d at (%v, %v), workers=1 (%v, %v)", workers, i,
					warm.Cells[i].X, warm.Cells[i].Y, ref.Cells[i].X, ref.Cells[i].Y)
			}
		}
	}
}

// BenchmarkPlaceECO times one PlaceECO call at one worker on a warm
// 3000-cell design, per kind of edit: three inserted cells, twenty
// reweighted nets (neither evicts a cell, so neither runs eGP) and a
// blockage a tenth of the region's side (eGP over the cells it evicts).
// Cloning the placed design and eco.Prepare are not timed.
func BenchmarkPlaceECO(b *testing.B) {
	spec := synth.Spec{Name: "eco-bench", NumCells: 3000, Seed: 4}
	base := synth.Generate(spec)
	if _, err := Place(base, FlowOptions{GP: Options{Workers: 1}}); err != nil {
		b.Fatal(err)
	}
	std := base.Cells[base.MovableOf(netlist.StdCell)[0]]
	nets := len(base.Nets)
	insert := &eco.Script{}
	for k := range 3 {
		insert.AddCells = append(insert.AddCells, eco.AddCell{
			Name: fmt.Sprintf("eco_ins_%d", k), W: std.W, H: std.H,
			NetIDs: []int{(97 * (k + 1)) % nets, (131 * (k + 1)) % nets},
		})
	}
	reweight := &eco.Script{}
	for k := range 20 {
		reweight.ReweightNets = append(reweight.ReweightNets, eco.Reweight{NetID: (37 * (k + 1)) % nets, Weight: 4})
	}
	for _, bc := range []struct {
		name   string
		script *eco.Script
	}{
		{"insert", insert},
		{"reweight", reweight},
		{"block", blockEdit(base.Region)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := base.Clone()
				prep, err := eco.Prepare(d, bc.script, eco.PlanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := PlaceECO(context.Background(), d, prep.Plan, ECOOptions{GP: Options{Workers: 1}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
