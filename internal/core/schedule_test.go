package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// mustEngine builds the stage engine or fails the test.
func mustEngine(tb testing.TB, d *netlist.Design, idx []int, opt Options, rec *telemetry.Recorder) *engine {
	tb.Helper()
	e, err := newEngine(d.Compile(), idx, opt, rec)
	if err != nil {
		tb.Fatalf("newEngine: %v", err)
	}
	return e
}

func TestGammaSchedule(t *testing.T) {
	d := testCircuit(100, 31)
	e := mustEngine(t, d, d.Movable(), Options{GridM: 32}, telemetry.New())
	bw := math.Min(e.dm.Grid.BinW, e.dm.Grid.BinH)
	// At tau = 1: gamma = 8*binW*10^{0.9*20/9 - 1} = 8*binW*10.
	e.updateGamma(1.0)
	if want := 8 * bw * 10; math.Abs(e.gamma-want) > 1e-9*want {
		t.Errorf("gamma(1.0) = %v, want %v", e.gamma, want)
	}
	// At tau = 0.1: gamma = 8*binW*0.1.
	e.updateGamma(0.1)
	if want := 8 * bw * 0.1; math.Abs(e.gamma-want) > 1e-9*want {
		t.Errorf("gamma(0.1) = %v, want %v", e.gamma, want)
	}
	// Monotone in tau.
	e.updateGamma(0.5)
	mid := e.gamma
	e.updateGamma(0.8)
	if e.gamma <= mid {
		t.Errorf("gamma not increasing with overflow: %v then %v", mid, e.gamma)
	}
}

func TestLambdaInitBalancesGradients(t *testing.T) {
	d := testCircuit(200, 32)
	idx := d.Movable()
	e := mustEngine(t, d, idx, Options{GridM: 32}, telemetry.New())
	v := d.Positions(idx)
	e.initLambda(v)
	if e.lambda <= 0 || math.IsInf(e.lambda, 0) || math.IsNaN(e.lambda) {
		t.Fatalf("lambda = %v", e.lambda)
	}
	// By construction sum|gW| == lambda * sum|gN|.
	e.wl.CostAndGradient(e.gw)
	e.dm.Refresh(idx)
	e.dm.Gradient(idx, e.gd)
	var sw, sd float64
	for i := range e.gw {
		sw += math.Abs(e.gw[i])
		sd += math.Abs(e.gd[i])
	}
	if math.Abs(e.lambda*sd-sw) > 1e-6*sw {
		t.Errorf("lambda %v does not balance %v / %v", e.lambda, sw, sd)
	}
}

func TestPlaceGlobalDeterministic(t *testing.T) {
	run := func() []float64 {
		d := testCircuit(200, 33)
		InsertFillers(d, 3)
		idx := d.Movable()
		mustPlaceGlobal(t, d, idx, Options{GridM: 32, MaxIters: 150, TargetOverflow: 0.3}, "mGP", 0)
		return d.Positions(idx)
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlowDeterministic(t *testing.T) {
	run := func() float64 {
		d := synth.Generate(synth.Spec{Name: "det-flow", NumCells: 300, NumMovableMacros: 3})
		res, err := Place(d, FlowOptions{GP: Options{GridM: 32, MaxIters: 500}})
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL
	}
	if a, b := run(), run(); a != b {
		t.Errorf("flow not deterministic: %v vs %v", a, b)
	}
}

func TestPreconditionerFloorsAtTinyLambda(t *testing.T) {
	d := testCircuit(50, 34)
	// An unconnected movable cell has degree 0; with lambda ~ 0 the
	// preconditioner must hit its floor rather than divide by ~zero.
	d.AddCell(netlistCell(1, 1, 5, 5))
	idx := d.Movable()
	e := mustEngine(t, d, idx, Options{GridM: 32}, telemetry.New())
	e.lambda = 1e-12
	v := d.Positions(idx)
	g := make([]float64, len(v))
	e.gradient(v, g)
	for i, gv := range g {
		if math.IsNaN(gv) || math.IsInf(gv, 0) {
			t.Fatalf("gradient[%d] = %v with degree-0 cell at tiny lambda", i, gv)
		}
	}
}

// netlistCell builds a plain movable standard cell literal.
func netlistCell(w, h, x, y float64) (c netlist.Cell) {
	c.W, c.H, c.X, c.Y = w, h, x, y
	return c
}

func TestTraceWriteCSV(t *testing.T) {
	tr := &Trace{}
	tr.Sample(Sample{Stage: "mGP", Iteration: 0, HPWL: 100, Overflow: 0.9, Lambda: 0.1, Gamma: 5, Alpha: 1})
	tr.Sample(Sample{Stage: "cGP", Iteration: 1, HPWL: 90, Overflow: 0.2, Backtracks: 2})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "stage,iter,hpwl") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "mGP,0,100") || !strings.HasPrefix(lines[2], "cGP,1,90") {
		t.Errorf("rows:\n%s", out)
	}
}
