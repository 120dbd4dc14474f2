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
