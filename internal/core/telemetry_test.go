package core

import (
	"context"
	"slices"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/eco"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// runFlow places a fresh copy of the test circuit and returns the final
// positions together with the flow result.
func runFlow(t *testing.T, rec *telemetry.Recorder) ([]float64, FlowResult) {
	t.Helper()
	d := testCircuit(220, 7)
	opt := FlowOptions{}
	opt.GP.MaxIters = 60
	opt.GP.GridM = 32
	opt.GP.Telemetry = rec
	res, err := Place(d, opt)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return d.Positions(d.Movable()), res
}

// TestTelemetryDoesNotPerturbPlacement is the determinism guarantee:
// instrumentation only reads optimizer state, so running with a live
// recorder (sinks attached) must produce bitwise-identical positions to
// running with telemetry disabled.
func TestTelemetryDoesNotPerturbPlacement(t *testing.T) {
	ring := telemetry.NewRingSink(256)
	rec := telemetry.New(ring)
	posOn, resOn := runFlow(t, rec)
	posOff, resOff := runFlow(t, nil)
	if len(posOn) != len(posOff) {
		t.Fatalf("position vector length mismatch: %d vs %d", len(posOn), len(posOff))
	}
	for i := range posOn {
		if posOn[i] != posOff[i] {
			t.Fatalf("position %d differs with telemetry on: %v vs %v", i, posOn[i], posOff[i])
		}
	}
	if resOn.HPWL != resOff.HPWL {
		t.Errorf("HPWL differs with telemetry on: %v vs %v", resOn.HPWL, resOff.HPWL)
	}
	if rec.Snapshot().Samples == 0 {
		t.Error("recorder collected no samples")
	}
	if len(ring.Samples()) == 0 {
		t.Error("ring sink received no samples")
	}
}

// TestSinklessRecorderTakesNoSamples: a recorder made without a sink,
// as a caller that reads span totals alone passes one, takes no sample
// from any stage of a mixed-size flow (mIP, mGP, mLG, cGP, cDP) and
// still records their spans; a recorder with a Trace takes samples from
// every stage that iterates.
func TestSinklessRecorderTakesNoSamples(t *testing.T) {
	place := func(rec *telemetry.Recorder) {
		d := synth.Generate(detSpecs()[2])
		opt := detFlowOpts(1)
		opt.GP.Telemetry = rec
		if _, err := Place(d, opt); err != nil {
			t.Fatal(err)
		}
	}
	stages := []string{"mIP", "mGP", "mLG", "cGP", "cDP"}
	rec := telemetry.New()
	place(rec)
	if n := rec.Snapshot().Samples; n != 0 {
		t.Errorf("a recorder without sinks took %d samples", n)
	}
	for _, st := range stages {
		if rec.SpanTime(st, "") <= 0 {
			t.Errorf("a recorder without sinks has no %s span", st)
		}
	}
	tr := &Trace{}
	traced := telemetry.New(tr)
	place(traced)
	for _, st := range []string{"mIP", "mGP", "cGP", "cDP"} { // mLG samples its outer iterations, here none
		if len(tr.Stage(st)) == 0 {
			t.Errorf("the trace has no %s sample", st)
		}
	}
	if n := traced.Snapshot().Samples; n != int64(len(tr.Samples)) || n == 0 {
		t.Errorf("a recorder with a trace counted %d samples, the trace holds %d", n, len(tr.Samples))
	}
}

// TestFlowRecordsStageAndKernelSpans checks that a full flow populates
// the ordered stage list and the per-kernel span aggregates the Fig. 7
// breakdown is derived from.
func TestFlowRecordsStageAndKernelSpans(t *testing.T) {
	rec := telemetry.New()
	_, res := runFlow(t, rec)

	if len(res.Stages) == 0 {
		t.Fatal("FlowResult.Stages is empty")
	}
	if res.Stages[0].Name != "mIP" {
		t.Errorf("first stage = %q, want mIP", res.Stages[0].Name)
	}
	last := res.Stages[len(res.Stages)-1]
	if last.Name != "cDP" {
		t.Errorf("last stage = %q, want cDP", last.Name)
	}

	// Kernel aggregates: the engine must have timed both gradient
	// kernels under the mGP stage, and cDP must carry its sub-phases.
	if rec.SpanTime("mGP", "wirelength") <= 0 {
		t.Error("no mGP/wirelength span time recorded")
	}
	if rec.SpanTime("mGP", "density") <= 0 {
		t.Error("no mGP/density span time recorded")
	}
	if rec.SpanTime("cDP", "legalize") <= 0 {
		t.Error("no cDP/legalize span time recorded")
	}
	if rec.SpanTime("cDP", "detail") <= 0 {
		t.Error("no cDP/detail span time recorded")
	}
	// Stage-level spans were emitted for every completed stage.
	for _, st := range res.Stages {
		if rec.SpanTime(st.Name, "") != st.Time {
			t.Errorf("span %q = %v, want stage time %v", st.Name, rec.SpanTime(st.Name, ""), st.Time)
		}
	}
	if n := rec.Snapshot().Counters; len(n) == 0 {
		t.Error("no counters recorded (expected engine/grad_evals at least)")
	}
	// mIP reports its rounds, solver work and stop reason in the result
	// and mirrors the counts into the recorder.
	counters := map[string]int64{}
	for _, c := range rec.Counters() {
		counters[c.Name] = c.Value
	}
	mip := res.MIP
	if mip.Rounds < 1 || mip.CGIterations < 1 || len(mip.HPWL) != mip.Rounds || mip.Stop == "" {
		t.Errorf("FlowResult.MIP = %+v, want rounds, CG iterations, per-round HPWL and a stop reason", mip)
	}
	if counters["mIP/rounds"] != int64(mip.Rounds) || counters["mIP/cg_iters"] != int64(mip.CGIterations) {
		t.Errorf("counters mIP/rounds=%d mIP/cg_iters=%d, result has %d and %d",
			counters["mIP/rounds"], counters["mIP/cg_iters"], mip.Rounds, mip.CGIterations)
	}
}

// TestTelemetryCountsNetsPriced checks the wirelength/nets_priced
// counter on one ECO call: it is the eGP stage's live nets (degree >= 2,
// a pin on an evicted cell) times its wirelength evaluations, which are
// the engine's gradient evaluations plus the one that balances λ.
func TestTelemetryCountsNetsPriced(t *testing.T) {
	spec := ecoSpec("eco-priced")
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
		t.Fatal(err)
	}
	warm := warmCopy(spec, cold)
	prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	if _, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Telemetry: rec}}); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range rec.Counters() {
		counters[c.Name] = c.Value
	}
	evicted := map[int]bool{}
	for _, ci := range prep.Plan.Evicted {
		evicted[ci] = true
	}
	live := 0
	for ni := range warm.Nets {
		pins := warm.Nets[ni].Pins
		for _, pi := range pins {
			if len(pins) >= 2 && evicted[warm.Pins[pi].Cell] {
				live++
				break
			}
		}
	}
	if live == 0 || live == len(warm.Nets) {
		t.Fatalf("%d of %d nets live: the edit does not leave part of the netlist out", live, len(warm.Nets))
	}
	evals := counters["engine/grad_evals"] + 1
	if got, want := counters["wirelength/nets_priced"], int64(live)*evals; got != want {
		t.Errorf("wirelength/nets_priced = %d, want %d live nets x %d evaluations = %d", got, live, evals, want)
	}
	t.Logf("%d of %d nets live, %d evaluations", live, len(warm.Nets), evals)
}

// TestMIPKernelSpansCoverStage checks the structure of mIP's two kernel
// spans: both are emitted, both are positive, and together they fit
// inside the stage span. How much of the stage they cover (about 96%;
// the rest is the start positions, the final clamp, the stage's HPWL
// and digest) is a wall-clock ratio and is read from the benchmark's
// traced run, not asserted here.
func TestMIPKernelSpansCoverStage(t *testing.T) {
	rec := telemetry.New()
	fo := FlowOptions{SkipLegalization: true}
	fo.GP.MaxIters = 1
	fo.GP.Telemetry = rec
	if _, err := Place(synth.Generate(synth.Spec{Name: "mip-spans", NumCells: 3000}), fo); err != nil {
		t.Fatal(err)
	}
	assemble, solve, stage := rec.SpanTime("mIP", "assemble"), rec.SpanTime("mIP", "solve"), rec.SpanTime("mIP", "")
	if assemble <= 0 || solve <= 0 || assemble+solve > stage {
		t.Errorf("mIP/assemble %v + mIP/solve %v vs stage %v", assemble, solve, stage)
	}
}

// TestMGPKernelSpansFitStage checks the structure of the spans that say
// what an mGP iteration spends outside its two gradients: nesterov (the
// step less the gradient time inside it), hpwl and digest are emitted
// and positive, and with wirelength and density (which contains the
// Poisson span) they fit inside the stage span. How much of the stage
// they cover is a wall-clock ratio read from the benchmark's traced run,
// not asserted here.
func TestMGPKernelSpansFitStage(t *testing.T) {
	rec := telemetry.New()
	runFlow(t, rec)
	sum := rec.SpanTime("mGP", "wirelength") + rec.SpanTime("mGP", "density")
	for _, kernel := range []string{"nesterov", "hpwl", "digest"} {
		d := rec.SpanTime("mGP", kernel)
		if d <= 0 {
			t.Errorf("mGP/%s span = %v, want > 0", kernel, d)
		}
		sum += d
	}
	if stage := rec.SpanTime("mGP", ""); sum > stage {
		t.Errorf("mGP kernel spans sum to %v, more than the stage's %v", sum, stage)
	}
}

// TestResultTimingFromSpans: a flow's per-stage timing breakdown (Fig.
// 7) is read from the recorder's spans, the one source of kernel time:
// the finest mGP's density and wirelength spans are populated, and each
// is a part of the mGP stage span.
func TestResultTimingFromSpans(t *testing.T) {
	rec := telemetry.New()
	runFlow(t, rec)
	stage := rec.SpanTime("mGP", "")
	for _, kernel := range []string{"density", "wirelength"} {
		if d := rec.SpanTime("mGP", kernel); d <= 0 || d > stage {
			t.Errorf("mGP/%s span %v, want positive and within the stage's %v", kernel, d, stage)
		}
	}
}

// TestFlowStageContract pins what every flow owes its stage accounting
// and the design, whichever way the one driver is configured: each entry
// of Stages has exactly one emitted stage span of the same name and
// duration, cDP reports its legalize and detail kernel spans, Digests
// ends with the "final" digest, and a stage holds cells without writing
// their Fixed flags: every cell ends as fixed as it came in, except the
// movable macros mLG legalized. On the mixed-size row the filler-only
// phase, which holds the standard cells, leaves every one of them
// bitwise where mLG's boundary snapshot has it.
func TestFlowStageContract(t *testing.T) {
	place := func(spec synth.Spec, fo FlowOptions) func(*testing.T, *telemetry.Recorder) (flowSummary, error) {
		return func(t *testing.T, rec *telemetry.Recorder) (flowSummary, error) {
			d := synth.Generate(spec)
			in := fixedFlags(d)
			macros := d.MovableOf(netlist.Macro)
			fo.GP.Telemetry = rec
			res, err := Place(d, fo)
			fixedKept(t, d, in, macros)
			return res.flowSummary, err
		}
	}
	rows := []struct {
		name   string
		stages []string
		run    func(*testing.T, *telemetry.Recorder) (flowSummary, error)
	}{
		{"flat", []string{"mIP", "mGP", "cDP"}, place(detSpecs()[0], detFlowOpts(2))},
		{"levels3", []string{"mIP", "mGP/L2", "mGP/L1", "mGP", "cDP"},
			place(mlSpec(), FlowOptions{GP: Options{GridM: 64, MaxIters: 500, Workers: 2}, Levels: 3})},
		{"mixed", []string{"mIP", "mGP", "mLG", "cGP", "cDP"}, func(t *testing.T, rec *telemetry.Recorder) (flowSummary, error) {
			var all snapshots
			fo := detFlowOpts(2)
			fo.Checkpoint = &all
			spec := detSpecs()[2]
			sum, err := place(spec, fo)(t, rec)
			if err != nil {
				return sum, err
			}
			snaps := map[string]*checkpoint.State{}
			for _, st := range all {
				snaps[st.Phase] = st
			}
			mlg, filler := snaps[checkpoint.PhasePostMLG], snaps[checkpoint.PhasePostCGPFiller]
			if mlg == nil || filler == nil {
				t.Fatalf("no post-mLG or post-cGP-filler snapshot among %d", len(all))
			}
			std := synth.Generate(spec).MovableOf(netlist.StdCell)
			for _, ci := range std {
				if mlg.X[ci] != filler.X[ci] || mlg.Y[ci] != filler.Y[ci] {
					t.Errorf("standard cell %d moved from (%v, %v) to (%v, %v) in the filler-only phase",
						ci, mlg.X[ci], mlg.Y[ci], filler.X[ci], filler.Y[ci])
				}
			}
			if slices.Equal(mlg.X[mlg.NumBaseCells:], filler.X[filler.NumBaseCells:]) {
				t.Error("the filler-only phase moved no filler")
			}
			return sum, nil
		}},
		{"eco", []string{"eGP", "cDP"}, func(t *testing.T, rec *telemetry.Recorder) (flowSummary, error) {
			spec := ecoSpec("eco-contract")
			cold := synth.Generate(spec)
			if _, err := Place(cold, FlowOptions{GP: Options{MaxIters: 500}}); err != nil {
				return flowSummary{}, err
			}
			warm := warmCopy(spec, cold)
			script := blockEdit(warm.Region)
			script.AddCells = []eco.AddCell{
				{Name: "eco_a", W: 2, H: 1, NetIDs: []int{0}},
				{Name: "eco_b", W: 2, H: 1, NetIDs: []int{1}},
			}
			prep, err := eco.Prepare(warm, script, eco.PlanOptions{})
			if err != nil {
				return flowSummary{}, err
			}
			in := fixedFlags(warm)
			res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Workers: 2, Telemetry: rec}})
			fixedKept(t, warm, in, nil)
			return res.flowSummary, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ring := telemetry.NewRingSink(1024)
			rec := telemetry.New(ring)
			sum, err := row.run(t, rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Stages) != len(row.stages) {
				t.Fatalf("Stages = %v, want %v", sum.Stages, row.stages)
			}
			spans := ring.Spans()
			for i, st := range sum.Stages {
				if st.Name != row.stages[i] {
					t.Errorf("stage %d = %q, want %q", i, st.Name, row.stages[i])
				}
				n := 0
				for _, sp := range spans {
					if sp.Kernel == "" && sp.Stage == st.Name {
						n++
						if sp.Dur != st.Time {
							t.Errorf("stage span %q lasts %v, Stages says %v", st.Name, sp.Dur, st.Time)
						}
					}
				}
				if n != 1 {
					t.Errorf("stage %q emitted %d stage spans, want 1", st.Name, n)
				}
			}
			for _, kernel := range []string{"legalize", "detail"} {
				if rec.SpanTime("cDP", kernel) <= 0 {
					t.Errorf("no cDP/%s kernel span recorded", kernel)
				}
			}
			if n := len(sum.Digests); n == 0 || sum.Digests[n-1].Stage != "final" {
				t.Errorf("Digests = %v, want a list ending with \"final\"", sum.Digests)
			}
		})
	}
}

// fixedFlags returns every cell's Fixed flag.
func fixedFlags(d *netlist.Design) []bool {
	out := make([]bool, len(d.Cells))
	for i := range d.Cells {
		out[i] = d.Cells[i].Fixed
	}
	return out
}

// fixedKept checks that d's cells are fixed exactly as in says, except
// the macros, which mLG fixed.
func fixedKept(t *testing.T, d *netlist.Design, in []bool, macros []int) {
	t.Helper()
	want := slices.Clone(in)
	for _, mi := range macros {
		want[mi] = true
	}
	if got := fixedFlags(d); !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Errorf("%d cells in, %d out; cell %d ends Fixed=%v, want %v", len(want), len(got), i, i < len(got) && got[i], want[i])
				return
			}
		}
		t.Errorf("%d cells in, %d out", len(want), len(got))
	}
}
