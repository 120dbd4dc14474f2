package core

import (
	"testing"

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
	for _, stage := range []string{"mIP", "mGP", "cDP"} {
		if res.StageTime[stage] <= 0 {
			t.Errorf("stage %s has no recorded time", stage)
		}
	}

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
	if err := legalize.CheckMacrosLegal(d, d.Macros()); err != nil {
		t.Errorf("macro legality: %v", err)
	}
	// All three GP stages traced.
	if len(tr.Stage("mGP")) == 0 || len(tr.Stage("cGP")) == 0 {
		t.Error("missing stage traces")
	}
	if len(tr.Stage("cGP-filler")) != 20 {
		t.Errorf("filler-only placement ran %d iterations, want 20", len(tr.Stage("cGP-filler")))
	}
	for _, stage := range []string{"mIP", "mGP", "mLG", "cGP", "cDP"} {
		if res.StageTime[stage] <= 0 {
			t.Errorf("stage %s has no recorded time", stage)
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

func TestFlowDetailImprovesOverLegalized(t *testing.T) {
	d1 := synth.Generate(synth.Spec{Name: "flow-dp", NumCells: 500})
	r1, err := Place(d1, FlowOptions{GP: Options{GridM: 32, MaxIters: 600}, SkipDetail: true})
	if err != nil {
		t.Fatal(err)
	}
	d2 := synth.Generate(synth.Spec{Name: "flow-dp", NumCells: 500})
	r2, err := Place(d2, FlowOptions{GP: Options{GridM: 32, MaxIters: 600}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.HPWL > r1.HPWL {
		t.Errorf("detail placement worsened HPWL: %v vs %v", r2.HPWL, r1.HPWL)
	}
	if r2.DP.HPWLAfter > r2.DP.HPWLBefore {
		t.Errorf("cDP increased HPWL: %+v", r2.DP)
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

func TestStdCellHeightInference(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "h", NumCells: 100, RowHeight: 3})
	if h := stdCellHeight(d); h != 3 {
		t.Errorf("stdCellHeight = %v, want 3", h)
	}
}
