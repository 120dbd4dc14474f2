package core

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// mustEngine resets a fresh engine for the stage or fails the test.
func mustEngine(tb testing.TB, cv *netlist.Compiled, idx []int, opt Options, rec *telemetry.Recorder) *engine {
	tb.Helper()
	e := &engine{}
	if err := e.reset(cv, cv.Design().Region, idx, nil, false, opt, rec); err != nil {
		tb.Fatalf("engine.reset: %v", err)
	}
	return e
}

func TestLambdaInitBalancesGradients(t *testing.T) {
	d := testCircuit(200, 32)
	idx := d.Movable()
	e := mustEngine(t, d.Compile(), idx, Options{GridM: 32}, telemetry.New())
	v := d.Positions(idx)
	e.sch.Gamma = 1
	lambda := e.initLambda(v, 0)
	if lambda <= 0 || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		t.Fatalf("lambda = %v", lambda)
	}
	// By construction sum|gW| == lambda * sum|gN|.
	gw, gd := make([]float64, 2*len(idx)), make([]float64, 2*len(idx))
	e.wl.CostAndGradient(gw)
	e.dm.Refresh(idx)
	e.dm.Gradient(idx, gd)
	var sw, sd float64
	for i := range gw {
		sw += math.Abs(gw[i])
		sd += math.Abs(gd[i])
	}
	if math.Abs(lambda*sd-sw) > 1e-6*sw {
		t.Errorf("lambda %v does not balance %v / %v", lambda, sw, sd)
	}
}

func TestPlaceGlobalDeterministic(t *testing.T) {
	run := func() []float64 {
		d := testCircuit(200, 33)
		cv := d.Compile()
		idx := append(d.Movable(), InsertFillers(cv, 3)...)
		mustPlaceGlobal(t, cv, d.Movable(), Options{GridM: 32, MaxIters: 150, TargetOverflow: 0.3}, "mGP", 0)
		v := make([]float64, 2*len(idx))
		cv.PositionsInto(idx, v)
		return v
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
	e := mustEngine(t, d.Compile(), idx, Options{GridM: 32}, telemetry.New())
	e.sch.Lambda, e.sch.Gamma = 1e-12, 1
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
	if err := telemetry.WriteSamplesCSV(&buf, tr.Samples); err != nil {
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

// TestScheduleObserve drives the schedule with single observations, no
// circuit: which stop test fires, when, and in what order; where the
// best snapshot moves; and λ's μ update and γ(τ) when the stage goes on.
func TestScheduleObserve(t *testing.T) {
	// At HPWL 100 the μ update's reference change is 1, and an unchanged
	// HPWL gives μ = 1.1.
	base := func() schedule {
		return schedule{
			GPState: checkpoint.GPState{
				Lambda: 1, Gamma: 1, PrevHPWL: 100, HPWL0: 100,
				Best: []float64{0, 0}, BestTau: 0.5,
			},
			binW: 2, divergeHPWL: 1e6, stallIters: 10, minIters: 5, targetOverflow: 0.1,
		}
	}
	for _, tc := range []struct {
		name      string
		setup     func(*schedule)
		iter      int
		hpwl, tau float64
		stop      string
		lambda    float64 // exact
		gamma     float64 // within 1e-9; 0 skips
		bestIter  int
	}{
		{name: "diverged before target-overflow", iter: 20, hpwl: 2e6, tau: 0.05,
			stop: StopDiverged, lambda: 1, gamma: 1, bestIter: 20},
		{name: "diverged before stall", iter: 20, hpwl: 2e6, tau: 0.6,
			stop: StopDiverged, lambda: 1, gamma: 1},
		{name: "target-overflow before stall", setup: func(s *schedule) { s.BestTau = 0.01 },
			iter: 20, hpwl: 100, tau: 0.05, stop: StopTargetOverflow, lambda: 1, gamma: 1},
		{name: "NaN HPWL diverges", iter: 0, hpwl: math.NaN(), tau: 0.6,
			stop: StopDiverged, lambda: 1, gamma: 1},
		{name: "target-overflow waits for minIters", iter: 4, hpwl: 100, tau: 0.05,
			lambda: 1.1, bestIter: 4},
		{name: "target-overflow at minIters", iter: 5, hpwl: 100, tau: 0.05,
			stop: StopTargetOverflow, lambda: 1, gamma: 1, bestIter: 5},
		{name: "stall waits for minIters", setup: func(s *schedule) { s.minIters = 30 },
			iter: 20, hpwl: 100, tau: 0.6, lambda: 1.1},
		{name: "no stall at stallIters", iter: 10, hpwl: 100, tau: 0.6, lambda: 1.1},
		{name: "stall at stallIters+1", iter: 11, hpwl: 100, tau: 0.6,
			stop: StopStall, lambda: 1, gamma: 1},
		{name: "tau tie moves the best snapshot", iter: 7, hpwl: 100, tau: 0.5,
			lambda: 1.1, bestIter: 7},
		{name: "mu capped at 1.1", setup: func(s *schedule) { s.PrevHPWL = math.Inf(1) },
			iter: 1, hpwl: 100, tau: 0.6, lambda: 1.1},
		{name: "mu 1 at the reference change", setup: func(s *schedule) { s.PrevHPWL = 99 },
			iter: 1, hpwl: 100, tau: 0.6, lambda: 1},
		{name: "mu floored at 0.95 past exponent -3", setup: func(s *schedule) { s.PrevHPWL = 90 },
			iter: 1, hpwl: 100, tau: 0.6, lambda: 0.95},
		{name: "gamma(1) is 80 bins", iter: 1, hpwl: 100, tau: 1, lambda: 1.1, gamma: 8 * 2 * 10},
		{name: "gamma(0.1) is 0.8 bins", iter: 1, hpwl: 100, tau: 0.1,
			lambda: 1.1, gamma: 8 * 2 * 0.1, bestIter: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			if tc.setup != nil {
				tc.setup(&s)
			}
			u := []float64{3, 4}
			if stop := s.observe(tc.iter, u, tc.hpwl, tc.tau); stop != tc.stop {
				t.Errorf("stop %q, want %q", stop, tc.stop)
			}
			if s.Lambda != tc.lambda {
				t.Errorf("lambda %v, want %v", s.Lambda, tc.lambda)
			}
			if tc.gamma != 0 && math.Abs(s.Gamma-tc.gamma) > 1e-9*tc.gamma {
				t.Errorf("gamma %v, want %v", s.Gamma, tc.gamma)
			}
			if s.BestTauIter != tc.bestIter {
				t.Errorf("best snapshot at iteration %d, want %d", s.BestTauIter, tc.bestIter)
			}
			if moved := s.Best[0] == u[0]; moved != (s.BestTau == tc.tau) {
				t.Errorf("best layout %v at best tau %v, observed tau %v", s.Best, s.BestTau, tc.tau)
			}
		})
	}
	// γ grows with τ.
	s := schedule{binW: 2}
	prev := 0.0
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.8, 1} {
		if s.setGamma(tau); s.Gamma <= prev {
			t.Errorf("gamma(%v) = %v, not above %v", tau, s.Gamma, prev)
		}
		prev = s.Gamma
	}
}

// TestScheduleReplaysTrace holds the schedule to a function of the
// stage's history: the (HPWL, τ) of every traced iteration, fed through
// a fresh schedule, give the next iteration's λ and γ bit for bit and
// the stage's stop.
func TestScheduleReplaysTrace(t *testing.T) {
	for _, target := range []float64{0.1, 1e-9} { // target-overflow, stall
		d := testCircuit(200, 5)
		cv := d.Compile()
		idx := append(d.Movable(), InsertFillers(cv, 3)...)
		opt := Options{MaxIters: 1000, GridM: 32, TargetOverflow: target}
		opt.defaults()

		// The fresh start placeGlobal takes, on an engine and a view of
		// its own.
		own := d.Compile()
		InsertFillers(own, 3)
		e := mustEngine(t, own, idx, opt, telemetry.New())
		e.sch.stallIters, e.sch.minIters, e.sch.targetOverflow = stallIters, opt.MinIters, opt.TargetOverflow
		v0 := make([]float64, 2*len(idx))
		cv.PositionsInto(idx, v0)
		e.start(v0, 0, 0)
		s := e.sch
		s.divergeHPWL = divergeHPWL(s.HPWL0, e.cv.NetW, d.Region)

		tr := &Trace{}
		opt.Telemetry = telemetry.New(tr)
		res := mustPlaceGlobal(t, cv, d.Movable(), opt, "mGP", 0)
		if first := tr.Samples[0]; first.Lambda != s.Lambda || first.Gamma != s.Gamma {
			t.Fatalf("first sample at lambda %v gamma %v, start at %v %v", first.Lambda, first.Gamma, s.Lambda, s.Gamma)
		}
		for i, smp := range tr.Samples {
			stop := s.observe(smp.Iteration, nil, smp.HPWL, smp.Overflow)
			if i == len(tr.Samples)-1 {
				if stop != res.Stop {
					t.Errorf("replay stops on %q, the stage on %q", stop, res.Stop)
				}
				break
			}
			next := tr.Samples[i+1]
			if stop != "" || math.Float64bits(s.Lambda) != math.Float64bits(next.Lambda) ||
				math.Float64bits(s.Gamma) != math.Float64bits(next.Gamma) {
				t.Fatalf("iteration %d: replay gives stop %q, lambda %v, gamma %v; the stage ran on at %v, %v",
					smp.Iteration, stop, s.Lambda, s.Gamma, next.Lambda, next.Gamma)
			}
		}
	}
}

// TestObserveReplaysCollapse replays two recorded mGP histories that
// collapse under the bin-unit charge (qᵢ = area / binArea, the
// preconditioner before flat stages took the paper's qᵢ = area): the
// 12.5K circuit forced onto a 256 grid (`eplace -synth 12500 -grid 256
// -seed 1`) and flat 50K seed 2 (`-synth 50000 -seed 2`). Each CSV holds
// the stage's (iteration, τ, HPWL, λ) as `-trace-csv` printed them. Fed
// through a fresh schedule, every row predicts the next row's λ, and the
// history stops where the run did, on the same test. The flow no longer
// reaches these histories; a rollback or stop rule that changes what a
// collapsing stage adopts is judged on them.
func TestObserveReplaysCollapse(t *testing.T) {
	for _, tc := range []struct {
		file string
		stop string
		iter int // the iteration the stop fired at
	}{
		{"lab12500_grid256_seed1.csv", StopStall, 526},
		{"flat50000_seed2.csv", StopStall, 697},
	} {
		t.Run(tc.file, func(t *testing.T) {
			rows := readHistory(t, "../../testdata/histories/"+tc.file)
			// The stage's bounds; neither run came near its divergence
			// threshold, which the history does not record.
			s := schedule{
				GPState:     checkpoint.GPState{Best: []float64{0, 0}, BestTau: math.Inf(1)},
				binW:        1,
				divergeHPWL: math.Inf(1),
				stallIters:  stallIters, minIters: 20, targetOverflow: 0.10,
			}
			u := []float64{0, 0}
			stop, at := "", -1
			for i, r := range rows {
				if r.iter != i {
					t.Fatalf("row %d holds iteration %d", i, r.iter)
				}
				s.Lambda = r.lambda
				if i > 0 {
					s.PrevHPWL = rows[i-1].hpwl
				}
				if stop = s.observe(r.iter, u, r.hpwl, r.tau); stop != "" {
					at = r.iter
					break
				}
				// The trace prints 8 significant digits. Row 0's μ reads the
				// stage's start HPWL, which the history does not hold.
				if i > 0 && i+1 < len(rows) && math.Abs(s.Lambda-rows[i+1].lambda) > 1e-6*rows[i+1].lambda {
					t.Fatalf("iteration %d: replay gives lambda %v, the run went on at %v", i, s.Lambda, rows[i+1].lambda)
				}
			}
			if stop != tc.stop || at != tc.iter {
				t.Errorf("replay stops on %q at iteration %d, want %q at %d", stop, at, tc.stop, tc.iter)
			}
			if at != len(rows)-1 {
				t.Errorf("replay stops at iteration %d, the history runs to %d", at, len(rows)-1)
			}
		})
	}
}

// historyRow is one iteration of a recorded GP history.
type historyRow struct {
	iter              int
	tau, hpwl, lambda float64
}

// readHistory reads a testdata/histories CSV: a header, then one
// iter,tau,hpwl,lambda row per iteration.
func readHistory(tb testing.TB, path string) []historyRow {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	if len(recs) < 2 || !slices.Equal(recs[0], []string{"iter", "tau", "hpwl", "lambda"}) {
		tb.Fatalf("%s: not a history (header %v)", path, recs[:min(1, len(recs))])
	}
	rows := make([]historyRow, len(recs)-1)
	for i, rec := range recs[1:] {
		r := &rows[i]
		if r.iter, err = strconv.Atoi(rec[0]); err != nil {
			tb.Fatalf("%s row %d: %v", path, i, err)
		}
		for j, p := range []*float64{&r.tau, &r.hpwl, &r.lambda} {
			if *p, err = strconv.ParseFloat(rec[j+1], 64); err != nil {
				tb.Fatalf("%s row %d: %v", path, i, err)
			}
		}
	}
	return rows
}
