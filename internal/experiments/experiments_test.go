package experiments

import (
	"bytes"
	"strings"
	"testing"

	"eplace/internal/synth"
)

// The experiment harness is exercised end-to-end at tiny scale; the
// real tables run through cmd/experiments at full scale.

func tinyOpt() RunOptions { return RunOptions{GridM: 32, MaxIters: 600} }

func TestRunEachPlacer(t *testing.T) {
	spec := synth.Spec{Name: "harness", NumCells: 300, NumFixedMacros: 2}
	for _, p := range AllPlacers {
		rep := RunSpec(spec, p, tinyOpt())
		if rep.Failed {
			t.Errorf("%s failed", p)
		}
		if rep.HPWL <= 0 || rep.Seconds <= 0 {
			t.Errorf("%s report incomplete: %+v", p, rep)
		}
		if !rep.Legal {
			t.Errorf("%s produced illegal layout", p)
		}
	}
}

func TestRunMixedSizeEachPlacer(t *testing.T) {
	spec := synth.Spec{Name: "harness-mms", NumCells: 300, NumMovableMacros: 3}
	for _, p := range AllPlacers {
		rep := RunSpec(spec, p, tinyOpt())
		if rep.Failed {
			t.Errorf("%s failed on mixed-size", p)
		}
		if !rep.Legal {
			t.Errorf("%s illegal on mixed-size", p)
		}
	}
}

func TestEPlaceBeatsMinCut(t *testing.T) {
	// The headline shape of Tables I-III: the analytic placer clearly
	// beats min-cut.
	spec := synth.Spec{Name: "shape", NumCells: 500, NumFixedMacros: 3}
	e := RunSpec(spec, EPlace, tinyOpt())
	m := RunSpec(spec, MinCut, tinyOpt())
	if e.Failed || m.Failed {
		t.Fatal("runs failed")
	}
	if e.HPWL >= m.HPWL {
		t.Errorf("ePlace HPWL %v not below min-cut %v", e.HPWL, m.HPWL)
	}
}

func TestTablePrinting(t *testing.T) {
	specs := []synth.Spec{{Name: "T1", NumCells: 200}, {Name: "T2", NumCells: 250}}
	tr := runSuite("test table", specs, []Placer{MinCut, EPlace}, tinyOpt(), nil)
	var buf bytes.Buffer
	tr.print(&buf, hpwlMetric, true)
	out := buf.String()
	for _, want := range []string{"T1", "T2", "AvgGap%", "AvgRuntime", "AvgOverflow", "Wins", "ePlace"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Output(t *testing.T) {
	var buf bytes.Buffer
	Fig2(0.05, tinyOpt(), &buf)
	out := buf.String()
	if !strings.Contains(out, "stage,iter,hpwl") || !strings.Contains(out, "mGP") {
		t.Errorf("Fig2 output malformed:\n%s", truncStr(out, 400))
	}
}

func TestFig5Output(t *testing.T) {
	var buf bytes.Buffer
	Fig5(0.05, tinyOpt(), &buf)
	out := buf.String()
	if !strings.Contains(out, "before,") || !strings.Contains(out, "after,") {
		t.Errorf("Fig5 output malformed:\n%s", out)
	}
	if !strings.Contains(out, "legal=true") {
		t.Errorf("Fig5 did not legalize:\n%s", out)
	}
}

func TestFig7Output(t *testing.T) {
	var buf bytes.Buffer
	Fig7(0.03, tinyOpt(), 2, &buf)
	out := buf.String()
	for _, want := range []string{"mGP,", "density-gradient,", "wirelength-gradient,"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestLineSearchStudy(t *testing.T) {
	var buf bytes.Buffer
	LineSearchStudy(0.05, tinyOpt(), &buf)
	out := buf.String()
	if !strings.Contains(out, "Nesterov,") || !strings.Contains(out, "CG(FFTPL),") {
		t.Errorf("line-search study malformed:\n%s", out)
	}
}

func TestAblationOutput(t *testing.T) {
	var buf bytes.Buffer
	AblateFillerPhase(0.05, 2, tinyOpt(), &buf)
	out := buf.String()
	if !strings.Contains(out, "circuit,hpwl_base") {
		t.Errorf("ablation output malformed:\n%s", out)
	}
}

// -exp eco prints a title, the CSV header and one legal row per edit
// of the suite.
func TestECOStudyOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := ECOStudy(ECOStudyOptions{Cells: 600}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 || !strings.HasPrefix(lines[0], "# ECO warm-start") ||
		lines[1] != "case,cold_s,eco_s,speedup,cold_hpwl,eco_hpwl,delta%,active,frozen,legal" {
		t.Fatalf("ECO study output malformed:\n%s", buf.String())
	}
	for i, name := range []string{"ins0.1", "ins1", "ins5", "reweight", "block"} {
		row := lines[2+i]
		if !strings.HasPrefix(row, name+",") || !strings.HasSuffix(row, ",true") {
			t.Errorf("row %d = %q, want case %s ending legal", i, row, name)
		}
	}
}

func truncStr(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
