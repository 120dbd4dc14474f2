package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/eco"

	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

func TestFlowStdCellOnly(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "flow-std", NumCells: 600, NumFixedMacros: 4})
	res, err := Place(d, FlowOptions{GP: Options{GridM: 32, MaxIters: 800}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MixedSize {
		t.Error("std-cell design reported mixed-size")
	}
	if !res.Legal {
		t.Error("final layout not legal")
	}
	if res.HPWL <= 0 {
		t.Error("no wirelength reported")
	}
	if res.MGP.Overflow > 0.12 {
		t.Errorf("mGP overflow = %v", res.MGP.Overflow)
	}
	// Fillers removed.
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.Filler {
			t.Fatal("fillers left in design")
		}
	}
	checkStages(t, res.Stages, "mIP", "mGP", "cDP")

	// The same flow traced through a Trace sink: the mIP point of
	// Fig. 2 first, then one sample per mGP iteration, and the same
	// layout bits as the untraced run.
	tr := &Trace{}
	d2 := synth.Generate(synth.Spec{Name: "flow-std", NumCells: 600, NumFixedMacros: 4})
	res2, err := Place(d2, FlowOptions{GP: Options{GridM: 32, MaxIters: 800, Telemetry: telemetry.New(tr)}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := telemetry.DigestsEqual(res.Digests, res2.Digests); !ok {
		t.Errorf("traced run differs from untraced: %s", why)
	}
	n := res2.MGP.Iterations
	if len(tr.Stage("mIP")) != 1 || len(tr.Stage("mGP")) != n || len(tr.Samples) < 1+n {
		t.Fatalf("trace holds %d mIP and %d mGP samples of %d, want 1 and %d",
			len(tr.Stage("mIP")), len(tr.Stage("mGP")), len(tr.Samples), n)
	}
	if tr.Samples[0].Stage != "mIP" {
		t.Errorf("first sample is %q, want mIP", tr.Samples[0].Stage)
	}
	for i, s := range tr.Samples[1 : 1+n] {
		if s.Stage != "mGP" || s.Iteration != i {
			t.Fatalf("sample %d is %s/%d, want mGP/%d", 1+i, s.Stage, s.Iteration, i)
		}
	}
}

func TestFlowMixedSize(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "flow-mms", NumCells: 600, NumMovableMacros: 5})
	tr := &Trace{}
	res, err := Place(d, FlowOptions{GP: Options{GridM: 32, MaxIters: 800, Telemetry: telemetry.New(tr)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MixedSize {
		t.Fatal("mixed-size not detected")
	}
	if !res.MLG.Legal {
		t.Error("macros not legalized")
	}
	if !res.Legal {
		t.Error("final layout not legal")
	}
	if err := legalize.CheckMacrosLegal(d, macros(d)); err != nil {
		t.Errorf("macro legality: %v", err)
	}
	// All three GP stages traced.
	if len(tr.Stage("mGP")) == 0 || len(tr.Stage("cGP")) == 0 {
		t.Error("missing stage traces")
	}
	if len(tr.Stage("cGP-filler")) != 20 {
		t.Errorf("filler-only placement ran %d iterations, want 20", len(tr.Stage("cGP-filler")))
	}
	checkStages(t, res.Stages, "mIP", "mGP", "mLG", "cGP", "cDP")
}

// TestFlowDesignNeverGrows: the fillers of every global placement live
// in the flow's compiled views, so no flow changes the length or the
// capacity of the caller's cells or hands back a filler, whether it
// finishes (flat, V-cycle, mixed-size, an ECO block edit that evicts
// cells), is canceled inside mGP or cGP, or refuses its snapshot.
func TestFlowDesignNeverGrows(t *testing.T) {
	flat := synth.Spec{Name: "grow-flat", NumCells: 632}
	mixed := detSpecs()[2]
	opts := detFlowOpts(1)
	ckpt := t.TempDir()
	place := func(o FlowOptions) func(*netlist.Design) error {
		return func(d *netlist.Design) error {
			res, err := Place(d, o)
			if err == nil && o.Levels > 1 && len(res.ML) == 0 {
				err = fmt.Errorf("the flow built no coarse level")
			}
			return err
		}
	}
	// canceled stops the flow at iteration 5 of stage, leaving a snapshot
	// in ckpt.
	canceled := func(stage string) func(*netlist.Design) error {
		return func(d *netlist.Design) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mgr, err := checkpoint.NewManager(ckpt)
			if err != nil {
				return err
			}
			o := opts
			o.Checkpoint = mgr
			o.GP.Telemetry = telemetry.New(&cancelAtSink{stage: stage, iter: 5, cancel: cancel})
			if _, err := PlaceContext(ctx, d, o); !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("canceled flow returned %v, want ErrCanceled", err)
			}
			return nil
		}
	}
	vcycle := opts
	vcycle.Levels = 3
	ecoSpec := ecoSpec("grow-eco")
	var plan *eco.Plan
	for _, tc := range []struct {
		name   string
		design func() *netlist.Design
		place  func(*netlist.Design) error
	}{
		{"flat", func() *netlist.Design { return synth.Generate(flat) }, place(opts)},
		{"vcycle", func() *netlist.Design { return synth.Generate(synth.Spec{Name: "grow-vcycle", NumCells: 2600}) }, place(vcycle)},
		{"mixed", func() *netlist.Design { return synth.Generate(mixed) }, place(opts)},
		{"eco-block", func() *netlist.Design {
			cold := synth.Generate(ecoSpec)
			if _, err := Place(cold, opts); err != nil {
				t.Fatal(err)
			}
			warm := warmCopy(ecoSpec, cold)
			prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if plan = prep.Plan; len(plan.Evicted) == 0 {
				t.Fatalf("the block evicted nothing: %s", plan)
			}
			return warm
		}, func(d *netlist.Design) error {
			_, err := PlaceECO(context.Background(), d, plan, ECOOptions{GP: opts.GP})
			return err
		}},
		{"cancel-mGP", func() *netlist.Design { return synth.Generate(flat) }, canceled("mGP")},
		{"refused-resume", func() *netlist.Design { return synth.Generate(flat) }, func(d *netlist.Design) error {
			st, err := checkpoint.ReadFile(filepath.Join(ckpt, checkpoint.LatestName))
			if err != nil {
				return err
			}
			if st.Phase != checkpoint.PhaseMGP {
				return fmt.Errorf("snapshot at %q, want mid-mGP", st.Phase)
			}
			st.GP.Nesterov.U = st.GP.Nesterov.U[1:]
			o := opts
			o.Resume = st
			if _, err := Place(d, o); err == nil {
				return fmt.Errorf("a snapshot with a short U resumed")
			}
			return nil
		}},
		{"cancel-cGP", func() *netlist.Design { return synth.Generate(mixed) }, canceled("cGP")},
	} {
		d := tc.design()
		n, c := len(d.Cells), cap(d.Cells)
		if err := tc.place(d); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(d.Cells) != n || cap(d.Cells) != c {
			t.Errorf("%s: the caller's cells went from %d in %d to %d in %d", tc.name, n, c, len(d.Cells), cap(d.Cells))
		}
		for i := range d.Cells {
			if d.Cells[i].Kind == netlist.Filler {
				t.Errorf("%s: cell %d is a filler", tc.name, i)
				break
			}
		}
	}
}

// checkStages fails t unless stages lists want in order, each stage
// with a recorded time.
// macros returns every macro of d, movable or fixed.
func macros(d *netlist.Design) []int {
	var out []int
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.Macro {
			out = append(out, i)
		}
	}
	return out
}

func checkStages(t *testing.T, stages []StageSpan, want ...string) {
	t.Helper()
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i, st := range stages {
		if st.Name != want[i] || st.Time <= 0 {
			t.Errorf("stage %d = %+v, want %s with a recorded time", i, st, want[i])
		}
	}
}

func TestFlowSkipLegalization(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "flow-skip", NumCells: 300})
	res, err := Place(d, FlowOptions{
		GP:               Options{GridM: 32, MaxIters: 500},
		SkipLegalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Legal {
		t.Error("skipped legalization but reported legal")
	}
	if res.HPWL <= 0 {
		t.Error("no HPWL")
	}
}

// TestFlowDetailImprovesOverLegalized: cDP's refinement starts from the
// row-legalized layout and ends below it, and the flow reports the
// refined HPWL.
func TestFlowDetailImprovesOverLegalized(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "flow-dp", NumCells: 500})
	r, err := Place(d, FlowOptions{GP: Options{GridM: 32, MaxIters: 600}})
	if err != nil {
		t.Fatal(err)
	}
	if r.DP.Passes == 0 || r.DP.HPWLAfter >= r.DP.HPWLBefore {
		t.Errorf("cDP did not improve the legalized HPWL: %+v", r.DP)
	}
	if r.HPWL != r.DP.HPWLAfter {
		t.Errorf("flow HPWL %v, cDP ended at %v", r.HPWL, r.DP.HPWLAfter)
	}
}

func TestFlowFillerPhaseAblation(t *testing.T) {
	// Disabling the filler-only placement must not crash and should not
	// help (the paper reports +6.53% wirelength without it).
	d1 := synth.Generate(synth.Spec{Name: "flow-fa", NumCells: 500, NumMovableMacros: 4})
	r1, err := Place(d1, FlowOptions{GP: Options{GridM: 32, MaxIters: 700}})
	if err != nil {
		t.Fatal(err)
	}
	d2 := synth.Generate(synth.Spec{Name: "flow-fa", NumCells: 500, NumMovableMacros: 4})
	r2, err := Place(d2, FlowOptions{GP: Options{GridM: 32, MaxIters: 700, DisableFillerPhase: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Legal || !r2.Legal {
		t.Fatal("flows not legal")
	}
	if r2.HPWL < 0.9*r1.HPWL {
		t.Errorf("disabling filler phase helped substantially: %v vs %v", r2.HPWL, r1.HPWL)
	}
}
