package core

import (
	"context"
	"fmt"
	"math"
	"strings"
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
		br := geom.Rect{Lx: blk.Lx, Ly: blk.Ly, Hx: blk.Hx, Hy: blk.Hy}
		ov := cr.Intersect(br)
		if ov.Valid() && ov.W() > eps && ov.H() > eps {
			t.Fatalf("movable cell %d (%s) overlaps the blockage: cell %v block %v",
				ci, c.Name, cr, br)
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
	cv := d.Compile()
	fillers := InsertFillers(cv, 3)
	seedFillersInWhitespace(cv, d.Region, fillers, 4, d.Compile().FixedOrHeldInto(nil, nil))
	idx := append(append([]int(nil), active...), fillers...)

	opt := Options{MaxIters: 40, TargetOverflow: 0.15, Workers: 2, CheckpointEvery: 1}
	opt.defaults()
	ref := d.Compile()
	InsertFillers(ref, 3)
	start := make([]float64, 2*len(idx))
	cv.PositionsInto(idx, start)
	mustEngine(t, ref, idx, opt, telemetry.New()).clamp(start)
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
	res, err := placeGlobal(context.Background(), gpStage{
		name: "eGP", cv: cv, region: d.Region, idx: idx, opt: opt,
		lambdaScale: egpLambdaScale, stallIters: egpStallIters, sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 10 {
		t.Fatalf("the stage checked %d iterations, want at least 10", iters)
	}
	cv.Store() // the stage placed in the view; the design prices it from the structs
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
	// The reweight+removal row's digests are pinned (recorded on amd64
	// with AVX2).
	for _, tc := range []struct {
		name             string
		script           *eco.Script
		wantCDP, wantEnd string
	}{
		{"reweight", &eco.Script{ReweightNets: reweight}, "", ""},
		{"removal", &eco.Script{RemoveCells: []string{victim}}, "", ""},
		{"insertion", &eco.Script{AddCells: []eco.AddCell{{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0, 9}}}}, "", ""},
		{"reweight+removal", &eco.Script{RemoveCells: []string{victim}, ReweightNets: reweight},
			"6fef376e26aa3848", "1d8e1bc2a0752dde"},
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
		r := newRun(context.Background(), warm, 0, &opt, nil, &res.flowSummary)
		r.ensureRows()
		moved, held := splitActive(warm, plan)
		if err := placeMoved(r, plan, held, opt, &res); err != nil {
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
			if x, y := r.cv.PosX[ci], r.cv.PosY[ci]; x != input[k] || y != input[k+n] {
				t.Errorf("cell %d enters cDP at (%v, %v), its input slot is (%v, %v)", ci, x, y, input[k], input[k+n])
			}
		}
		if kept == 0 || kept+len(moved) != len(plan.Active) {
			t.Errorf("%d moved of %d active, %d outside Evicted and Fresh", len(moved), len(plan.Active), kept)
		}
		t.Logf("%d held, %d evicted, %d active", kept, len(plan.Evicted), len(plan.Active))
	})
}

// TestECOWindowGP: eGP places a blockage's evicted cells inside their
// eviction window. The window is smaller than the region and its free
// area holds the evicted cells at the target density; every evicted cell
// and filler ends the stage inside it, with the frozen cells bitwise
// where they were; and the whole call ends legal with the frozen cells
// unmoved, on pinned eGP and final digests.
func TestECOWindowGP(t *testing.T) {
	spec := synth.Spec{Name: "eco-window", NumCells: 2500, Seed: 6}
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	prepare := func() (*netlist.Design, *eco.Plan) {
		warm := warmCopy(spec, cold)
		prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(prep.Plan.Evicted) == 0 {
			t.Fatalf("the block evicted nothing: %s", prep.Plan)
		}
		return warm, prep.Plan
	}

	// The stage alone, holding what placeMoved holds, read before the
	// fillers go.
	d, plan := prepare()
	opt := Options{Workers: 2}
	var res ECOResult
	r := newRun(context.Background(), d, 0, &opt, nil, &res.flowSummary)
	r.ensureRows()
	lost := map[int]bool{}
	for _, ci := range append(append([]int(nil), plan.Evicted...), plan.Fresh...) {
		lost[ci] = true
	}
	var held []int
	for _, ci := range plan.Active {
		if !lost[ci] {
			held = append(held, ci)
		}
	}
	frozenPos := d.Positions(plan.Frozen)
	st := egpStage(r, plan, held, opt)
	w := st.region
	if w == d.Region || !d.Region.ContainsRect(w) {
		t.Fatalf("window %v, region %v: want a window inside the region", w, d.Region)
	}
	fresh := d.Compile()
	_, free := evictionWindow(fresh, plan, fresh.FixedOrHeldInto(nil, st.held))
	if need := areaOf(d, plan.Evicted); d.TargetDensity*free < need {
		t.Errorf("the window's free area %v holds %v at the target density %v, the evicted cells need %v",
			free, d.TargetDensity*free, d.TargetDensity, need)
	}
	if fillers := len(st.idx) - len(plan.Evicted); fillers <= 0 {
		t.Errorf("the window has %d fillers", fillers)
	}
	if _, err := r.gp(st); err != nil {
		t.Fatal(err)
	}
	cv := r.cv
	for _, ci := range st.idx {
		if c := geom.NewRectCenter(cv.PosX[ci], cv.PosY[ci], cv.CellW[ci], cv.CellH[ci]); !w.ContainsRect(c.Expand(-1e-9)) {
			t.Errorf("entry %d ends eGP at %v, outside the window %v", ci, c, w)
		}
	}
	cv.DropFillers()
	if err := unmoved(cv, plan.Frozen, frozenPos, "frozen"); err != nil {
		t.Error(err)
	}
	t.Logf("window %v of region %v, %d evicted + %d fillers on a %d-grid", w, d.Region,
		len(plan.Evicted), len(st.idx)-len(plan.Evicted), st.opt.GridM)

	// The whole call.
	d, plan = prepare()
	frozenPos = d.Positions(plan.Frozen)
	full, err := PlaceECO(context.Background(), d, plan, ECOOptions{GP: Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Legal {
		t.Error("incremental result not legal")
	}
	if err := unmoved(d.Compile(), plan.Frozen, frozenPos, "frozen"); err != nil {
		t.Error(err)
	}
	// Pinned: eGP's fixed charge is the fixed, frozen and held footprints,
	// and its fillers take the size of the cells it moves; the final
	// digest follows the seeded cDP, in which only the moved cells take
	// swap turns (recorded on amd64 with AVX2).
	for stage, want := range map[string]string{"eGP": "b67e6852c708f230", "final": "bd62f151984a75ab"} {
		if got := digestOf(t, full.Digests, stage).Hex(); got != want {
			t.Errorf("%s digest %s, want %s", stage, got, want)
		}
	}
}

// TestECOWorkersBitwiseIdentical runs cDP's ECO configuration (the
// seeded refinement over an active subset, the rest frozen into
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

// TestECOSkipsSwap: the refinement an ECO call starts from its edit
// gives swap turns to the cells the edit moved alone. A reweight moves
// none and prices no swap trial; an insertion of five cells prices some,
// at most five turns of eight candidates per pass; the cold flow that
// placed the design prices many.
func TestECOSkipsSwap(t *testing.T) {
	spec := ecoSpec("eco-swap")
	swapsPriced := func(place func(rec *telemetry.Recorder) error) int64 {
		t.Helper()
		rec := telemetry.New()
		if err := place(rec); err != nil {
			t.Fatal(err)
		}
		for _, c := range rec.Counters() {
			if c.Name == "cDP/swap_priced" {
				return c.Value
			}
		}
		t.Fatal("no cDP/swap_priced counter")
		return 0
	}
	cold := synth.Generate(spec)
	coldPriced := swapsPriced(func(rec *telemetry.Recorder) error {
		_, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500, Telemetry: rec}})
		return err
	})
	if coldPriced == 0 {
		t.Error("the cold flow priced no swap trial")
	}
	const inserted = 5
	for _, tc := range []struct {
		name   string
		script func(d *netlist.Design) *eco.Script
		turns  int64
	}{
		{"reweight", func(d *netlist.Design) *eco.Script { return reweightScript(len(d.Nets), 20) }, 0},
		{"insert", func(d *netlist.Design) *eco.Script {
			return insertScript(d.Cells[d.MovableOf(netlist.StdCell)[0]], len(d.Nets), inserted)
		}, inserted},
	} {
		warm := warmCopy(spec, cold)
		prep, err := eco.Prepare(warm, tc.script(warm), eco.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var passes int64
		n := swapsPriced(func(rec *telemetry.Recorder) error {
			res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Telemetry: rec}})
			if passes = int64(res.DP.Passes); err == nil && passes == 0 {
				t.Errorf("%s: the ECO call ran no cDP pass", tc.name)
			}
			return err
		})
		if n > tc.turns*8*passes || (n == 0) != (tc.turns == 0) || n >= coldPriced {
			t.Errorf("%s: the ECO call priced %d swap trials over %d passes, want at most %d turns of 8 per pass (cold flow %d)",
				tc.name, n, passes, tc.turns, coldPriced)
		}
		t.Logf("%s: %d swap trials priced over %d passes (cold flow %d)", tc.name, n, passes, coldPriced)
	}
}

// insertScript splices n cells the size of std into two nets each,
// spread over the netlist.
func insertScript(std netlist.Cell, nets, n int) *eco.Script {
	s := &eco.Script{}
	for k := range n {
		s.AddCells = append(s.AddCells, eco.AddCell{
			Name: fmt.Sprintf("eco_ins_%d", k), W: std.W, H: std.H,
			NetIDs: []int{(97 * (k + 1)) % nets, (131 * (k + 1)) % nets},
		})
	}
	return s
}

// reweightScript quadruples the weight of n nets spread over the
// netlist.
func reweightScript(nets, n int) *eco.Script {
	s := &eco.Script{}
	for k := range n {
		s.ReweightNets = append(s.ReweightNets, eco.Reweight{NetID: (37 * (k + 1)) % nets, Weight: 4})
	}
	return s
}

// benchECO times PlaceECO calls at one worker on clones of the placed
// base, each with script applied (cloning and eco.Prepare are not
// timed), and reports the trials cDP priced per call.
func benchECO(b *testing.B, base *netlist.Design, script *eco.Script) {
	rec := telemetry.New()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := base.Clone()
		prep, err := eco.Prepare(d, script, eco.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := PlaceECO(context.Background(), d, prep.Plan, ECOOptions{GP: Options{Workers: 1, Telemetry: rec}}); err != nil {
			b.Fatal(err)
		}
	}
	priced := int64(0)
	for _, c := range rec.Counters() {
		if strings.HasPrefix(c.Name, "cDP/") && strings.HasSuffix(c.Name, "_priced") {
			priced += c.Value
		}
	}
	b.ReportMetric(float64(priced)/float64(b.N), "priced/op")
}

// BenchmarkPlaceECO times one PlaceECO call at one worker on a warm
// 3000-cell design, per kind of edit: three inserted cells, 1% of the
// cells inserted, twenty reweighted nets (none of these evicts a cell,
// so none runs eGP) and a blockage a tenth of the region's side (eGP over
// the cells it evicts, in their eviction window).
func BenchmarkPlaceECO(b *testing.B) {
	spec := synth.Spec{Name: "eco-bench", NumCells: 3000, Seed: 4}
	base := synth.Generate(spec)
	if _, err := Place(base, FlowOptions{GP: Options{Workers: 1}}); err != nil {
		b.Fatal(err)
	}
	std := base.Cells[base.MovableOf(netlist.StdCell)[0]]
	nets := len(base.Nets)
	for _, bc := range []struct {
		name   string
		script *eco.Script
	}{
		{"insert", insertScript(std, nets, 3)},
		{"insert1pct", insertScript(std, nets, spec.NumCells/100)},
		{"reweight", reweightScript(nets, 20)},
		{"block", blockEdit(base.Region)},
	} {
		b.Run(bc.name, func(b *testing.B) { benchECO(b, base, bc.script) })
	}
}

// scalingBases caches BenchmarkPlaceECOScaling's placed designs by size:
// the benchmark function runs once per b.N guess, and a base placement
// costs far more than the calls it times.
var scalingBases = map[int]*netlist.Design{}

// BenchmarkPlaceECOScaling runs one script, a blockage a tenth of the
// region's side with ten insertions and ten reweighted nets, on warm
// designs of three sizes, to show how an ECO call's cost grows with the
// design around a fixed-size edit. The 20K and 80K bases are placed with
// the V-cycle.
func BenchmarkPlaceECOScaling(b *testing.B) {
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			base := scalingBases[n]
			if base == nil {
				base = synth.Generate(synth.Spec{Name: "eco-scaling", NumCells: n, Seed: 4})
				levels := 0
				if n > 5000 {
					levels = 4
				}
				if _, err := Place(base, FlowOptions{GP: Options{Workers: 1}, Levels: levels}); err != nil {
					b.Fatal(err)
				}
				scalingBases[n] = base
			}
			std := base.Cells[base.MovableOf(netlist.StdCell)[0]]
			script := blockEdit(base.Region)
			script.AddCells = insertScript(std, len(base.Nets), 10).AddCells
			script.ReweightNets = reweightScript(len(base.Nets), 10).ReweightNets
			benchECO(b, base, script)
		})
	}
}
