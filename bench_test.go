// Root benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (Sec. VII), on reduced-scale circuits so a
// full -bench=. sweep completes in minutes. Full-scale regeneration of
// the tables goes through cmd/experiments (see EXPERIMENTS.md).
package eplace

import (
	"fmt"
	"io"
	"testing"

	"eplace/internal/core"
	"eplace/internal/experiments"
	"eplace/internal/netlist"
	"eplace/internal/synth"
)

// benchScale keeps -bench runs quick; cmd/experiments uses 1.0.
const benchScale = 0.15

func benchOpt() experiments.RunOptions {
	return experiments.RunOptions{GridM: 32, MaxIters: 1000}
}

// mustPlaceGlobal runs core.PlaceGlobal and fails the benchmark on a
// configuration error.
func mustPlaceGlobal(tb testing.TB, d *netlist.Design, idx []int, opt core.Options, stage string, lambdaInit float64) core.Result {
	tb.Helper()
	res, err := core.PlaceGlobal(d, idx, opt, stage, lambdaInit)
	if err != nil {
		tb.Fatalf("PlaceGlobal(%s): %v", stage, err)
	}
	return res
}

func ispd05Spec(name string) synth.Spec {
	for _, s := range synth.ISPD05Suite(benchScale) {
		if s.Name == name {
			return s
		}
	}
	panic("unknown circuit " + name)
}

func ispd06Spec(name string) synth.Spec {
	for _, s := range synth.ISPD06Suite(benchScale) {
		if s.Name == name {
			return s
		}
	}
	panic("unknown circuit " + name)
}

func mmsSpec(name string) synth.Spec {
	for _, s := range synth.MMSSuite(benchScale) {
		if s.Name == name {
			return s
		}
	}
	panic("unknown circuit " + name)
}

// BenchmarkTable1PlacerSuite times every placer of Table I on the
// ISPD2005-like ADAPTEC1 and reports final HPWL.
func BenchmarkTable1PlacerSuite(b *testing.B) {
	spec := ispd05Spec("ADAPTEC1")
	for _, p := range experiments.AllPlacers {
		b.Run(string(p), func(b *testing.B) {
			var hpwl float64
			for i := 0; i < b.N; i++ {
				rep := experiments.RunSpec(spec, p, benchOpt())
				if rep.Failed {
					b.Fatalf("%s failed", p)
				}
				hpwl = rep.HPWL
			}
			b.ReportMetric(hpwl, "HPWL")
		})
	}
}

// BenchmarkTable2DensityTarget times ePlace under an ISPD2006-like
// density bound and reports the scaled HPWL and per-bin overflow.
func BenchmarkTable2DensityTarget(b *testing.B) {
	spec := ispd06Spec("NEWBLUE1")
	var rep = experiments.RunSpec(spec, experiments.EPlace, benchOpt())
	for i := 0; i < b.N; i++ {
		rep = experiments.RunSpec(spec, experiments.EPlace, benchOpt())
		if rep.Failed {
			b.Fatal("run failed")
		}
	}
	b.ReportMetric(rep.ScaledHPWL, "sHPWL")
	b.ReportMetric(rep.OverflowPerBin, "tau_avg%")
}

// BenchmarkTable3MixedSize times every placer of Table III on the
// MMS-like ADAPTEC1 (movable macros; shared mLG/cDP back end).
func BenchmarkTable3MixedSize(b *testing.B) {
	spec := mmsSpec("ADAPTEC1")
	for _, p := range experiments.AllPlacers {
		b.Run(string(p), func(b *testing.B) {
			var hpwl float64
			for i := 0; i < b.N; i++ {
				rep := experiments.RunSpec(spec, p, benchOpt())
				if rep.Failed {
					b.Fatalf("%s failed", p)
				}
				hpwl = rep.HPWL
			}
			b.ReportMetric(hpwl, "HPWL")
		})
	}
}

// BenchmarkFig2ConvergenceTrace times the fully traced mixed-size flow
// behind Figure 2.
func BenchmarkFig2ConvergenceTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(benchScale, benchOpt(), io.Discard)
	}
}

// BenchmarkFig7GradientBreakdown times one mGP run and reports the
// density/wirelength gradient shares of Figure 7.
func BenchmarkFig7GradientBreakdown(b *testing.B) {
	spec := mmsSpec("ADAPTEC1")
	var density, wl float64
	for i := 0; i < b.N; i++ {
		d := synth.Generate(spec)
		experiments.MIPOnly(d)
		core.InsertFillers(d, 2)
		res := mustPlaceGlobal(b, d, d.Movable(), core.Options{GridM: 32, MaxIters: 1000}, "mGP", 0)
		if res.Diverged {
			b.Fatal("mGP diverged")
		}
		density = 100 * res.DensityTime.Seconds() / res.Total.Seconds()
		wl = 100 * res.WirelengthTime.Seconds() / res.Total.Seconds()
	}
	b.ReportMetric(density, "density%")
	b.ReportMetric(wl, "wirelength%")
}

// BenchmarkAblationBacktracking compares mGP with and without BkTrk
// (Sec. V-C): same circuit, HPWL reported per variant.
func BenchmarkAblationBacktracking(b *testing.B) {
	spec := mmsSpec("ADAPTEC1")
	for _, disable := range []bool{false, true} {
		name := "with-bktrk"
		if disable {
			name = "without-bktrk"
		}
		b.Run(name, func(b *testing.B) {
			var hpwl float64
			diverged := false
			for i := 0; i < b.N; i++ {
				d := synth.Generate(spec)
				experiments.MIPOnly(d)
				core.InsertFillers(d, 2)
				res := mustPlaceGlobal(b, d, d.Movable(),
					core.Options{GridM: 32, MaxIters: 1000, DisableBkTrk: disable}, "mGP", 0)
				hpwl = res.HPWL
				diverged = res.Diverged
			}
			b.ReportMetric(hpwl, "HPWL")
			b.ReportMetric(boolMetric(diverged), "diverged")
		})
	}
}

// BenchmarkAblationPreconditioner compares mGP with and without the
// preconditioner (Sec. V-D).
func BenchmarkAblationPreconditioner(b *testing.B) {
	spec := mmsSpec("ADAPTEC2")
	for _, disable := range []bool{false, true} {
		name := "with-precond"
		if disable {
			name = "without-precond"
		}
		b.Run(name, func(b *testing.B) {
			var hpwl, tau float64
			for i := 0; i < b.N; i++ {
				d := synth.Generate(spec)
				experiments.MIPOnly(d)
				core.InsertFillers(d, 2)
				res := mustPlaceGlobal(b, d, d.Movable(),
					core.Options{GridM: 32, MaxIters: 1000, DisablePrecond: disable}, "mGP", 0)
				hpwl, tau = res.HPWL, res.Overflow
			}
			b.ReportMetric(hpwl, "HPWL")
			b.ReportMetric(tau, "tau")
		})
	}
}

// BenchmarkSolverComparison times Nesterov vs CG-with-line-search on
// the identical eDensity objective (footnote 2 / Sec. V-A).
func BenchmarkSolverComparison(b *testing.B) {
	spec := ispd05Spec("ADAPTEC1")
	for _, solver := range []core.SolverKind{core.SolverNesterov, core.SolverCG} {
		name := "nesterov"
		if solver == core.SolverCG {
			name = "cg-linesearch"
		}
		b.Run(name, func(b *testing.B) {
			var iters int
			var hpwl float64
			for i := 0; i < b.N; i++ {
				d := synth.Generate(spec)
				experiments.MIPOnly(d)
				core.InsertFillers(d, 2)
				res := mustPlaceGlobal(b, d, d.Movable(),
					core.Options{GridM: 32, MaxIters: 2000, Solver: solver}, "mGP", 0)
				iters, hpwl = res.Iterations, res.HPWL
			}
			b.ReportMetric(float64(iters), "iters")
			b.ReportMetric(hpwl, "HPWL")
		})
	}
}

// BenchmarkFullFlowScaling times the complete flow across circuit
// sizes, the throughput view of the runtime columns.
func BenchmarkFullFlowScaling(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("cells-%d", n), func(b *testing.B) {
			spec := synth.Spec{Name: fmt.Sprintf("scale-%d", n), NumCells: n, NumMovableMacros: 4}
			for i := 0; i < b.N; i++ {
				d := synth.Generate(spec)
				if _, err := core.Place(d, core.FlowOptions{GP: core.Options{MaxIters: 1500}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationAdaptiveRestart compares plain Nesterov against the
// adaptive-restart extension (DESIGN.md design-choice ablation).
func BenchmarkAblationAdaptiveRestart(b *testing.B) {
	spec := ispd05Spec("ADAPTEC2")
	for _, restart := range []bool{false, true} {
		name := "plain"
		if restart {
			name = "adaptive-restart"
		}
		b.Run(name, func(b *testing.B) {
			var hpwl float64
			var iters int
			for i := 0; i < b.N; i++ {
				d := synth.Generate(spec)
				experiments.MIPOnly(d)
				core.InsertFillers(d, 2)
				res := mustPlaceGlobal(b, d, d.Movable(),
					core.Options{GridM: 32, MaxIters: 1500, AdaptiveRestart: restart}, "mGP", 0)
				hpwl, iters = res.HPWL, res.Iterations
			}
			b.ReportMetric(hpwl, "HPWL")
			b.ReportMetric(float64(iters), "iters")
		})
	}
}
