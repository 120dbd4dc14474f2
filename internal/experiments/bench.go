package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"eplace/internal/core"
	"eplace/internal/detail"
	"eplace/internal/fft"
	"eplace/internal/legalize"
	"eplace/internal/metrics"
	"eplace/internal/netlist"
	"eplace/internal/parallel"
	"eplace/internal/poisson"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// BenchOptions tunes the machine-readable benchmark harness.
type BenchOptions struct {
	// Scale shrinks the suite cell counts (default 0.2).
	Scale float64
	// Circuits limits how many ISPD05 circuits run (0 = all).
	Circuits int
	// Workers is the gradient-kernel worker count (0 = all cores).
	Workers int
	// Log, when non-nil, receives one progress line per circuit.
	Log io.Writer

	// SweepSizes are the large single-circuit cell counts appended after
	// the suite, each placed by the multilevel V-cycle and — up to
	// SweepFlatMax cells — by the flat flow for comparison (default
	// 50000 and 100000; nil runs the default, empty slice skips).
	SweepSizes []int
	// Million appends a 1,000,000-cell row to the sweep (multilevel
	// only; the flat flow does not finish such a row in useful time).
	Million bool
	// SweepFlatMax is the largest sweep row that also gets a flat
	// baseline (default 100000).
	SweepFlatMax int
	// SweepLevels is the V-cycle depth for the sweep rows (default 5).
	SweepLevels int
	// SkipSweep drops the scale sweep entirely (suite rows only).
	SkipSweep bool

	// Poisson selects the eDensity Poisson backend the benchmark flow
	// runs (poisson.Kinds). BenchSuite defaults to spectral32, the
	// fastest backend, so the committed report carries the reduced mGP
	// density share; the per-backend microbench rows always measure all
	// backends regardless.
	Poisson string
}

// BenchDesign places d with the full ePlace flow under a fresh recorder
// and returns its benchmark record: quality metrics plus the stage and
// kernel timing breakdown.
func BenchDesign(d *netlist.Design, opt RunOptions) telemetry.BenchRecord {
	rec := telemetry.New()
	if opt.Telemetry == nil {
		opt.Telemetry = rec
	} else {
		rec = opt.Telemetry
	}
	start := time.Now()
	flowRes, err := core.Place(d, core.FlowOptions{
		GP: core.Options{
			GridM: opt.GridM, MaxIters: opt.MaxIters, Trace: opt.Trace,
			Workers: opt.Workers, Poisson: opt.Poisson, Telemetry: opt.Telemetry,
		},
		SkipDetail: opt.SkipDetail,
		Levels:     opt.Levels,
	})
	elapsed := time.Since(start).Seconds()
	rep := metrics.Measure(d.Name, string(EPlace), d, opt.GridM, elapsed, flowRes.Legal)

	b := telemetry.BenchRecord{
		Benchmark:  d.Name,
		Cells:      len(d.Cells),
		Nets:       len(d.Nets),
		Pins:       len(d.Pins),
		HPWL:       rep.HPWL,
		ScaledHPWL: rep.ScaledHPWL,
		Overflow:   rep.Overflow,
		Legal:      rep.Legal,
		Failed:     err != nil,
		Seconds:    elapsed,
		Iterations: map[string]int{},
	}
	if flowRes.MGP.Iterations > 0 {
		b.Iterations["mGP"] = flowRes.MGP.Iterations
	}
	for _, ml := range flowRes.ML {
		b.Iterations[fmt.Sprintf("mGP/L%d", ml.Level)] = ml.Result.Iterations
	}
	if flowRes.CGP.Iterations > 0 {
		b.Iterations["cGP"] = flowRes.CGP.Iterations
	}
	for _, st := range flowRes.Stages {
		b.Stages = append(b.Stages, telemetry.StageSeconds{
			Name: st.Name, Seconds: st.Time.Seconds(),
		})
	}
	b.KernelsFrom(rec)
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// timeKernel runs fn in a tight loop for roughly budget wall time
// (after one warm-up call) and returns the measurement.
func timeKernel(name string, budget time.Duration, fn func()) telemetry.MicroBench {
	fn() // warm up: first call may fault pages and fill caches
	var ops int
	var elapsed time.Duration
	for elapsed < budget && ops < 1<<20 {
		start := time.Now()
		fn()
		elapsed += time.Since(start)
		ops++
	}
	return telemetry.MicroBench{
		Name:    name,
		Ops:     ops,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops),
	}
}

// KernelMicrobench measures the spectral kernels that dominate the
// eDensity gradient — the packed DCT-II and the full Poisson solve —
// so BENCH_eplace.json records kernel-level speedups alongside the
// full-flow numbers. budget bounds the wall time per kernel; workers
// follows the core.Options convention (0 = all cores).
func KernelMicrobench(workers int, budget time.Duration) []telemetry.MicroBench {
	var out []telemetry.MicroBench

	r := fft.NewReal(512)
	x := make([]float64, 512)
	o1 := make([]float64, 512)
	o2 := make([]float64, 512)
	for i := range x {
		x[i] = float64(i % 13)
	}
	out = append(out,
		timeKernel("fft/DCT2_512", budget, func() { r.DCT2(x, o1) }),
		timeKernel("fft/DCT2Pair_512", budget, func() { r.DCT2Pair(x, x, o1, o2) }),
		timeKernel("fft/IDCTAndIDST_512", budget, func() { r.IDCTAndIDST(x, o1, o2) }),
	)

	// Per-backend Poisson solve rows with the float32-vs-float64
	// max-relative-error column: the serial float64 spectral row is the
	// reference both for the >=2x speedup acceptance line and for
	// MaxRelErr.
	for _, m := range []int{128, 256, 512} {
		rho := make([]float64, m*m)
		rng := rand.New(rand.NewSource(1))
		for i := range rho {
			rho[i] = rng.Float64()
		}
		ref, err := poisson.NewSolverWorkers(m, 1)
		if err != nil {
			panic(err) // power-of-two literals above; unreachable
		}
		ref.Solve(rho)
		_, refEx, refEy := ref.Planes()
		for _, kind := range poisson.Kinds() {
			counts := []int{1}
			if parallel.Count(workers) > 1 {
				counts = append(counts, parallel.Count(workers))
			}
			for _, w := range counts {
				b, err := poisson.NewBackend(kind, m, w)
				if err != nil {
					panic(err)
				}
				mb := timeKernel(fmt.Sprintf("poisson/Solve_%d_%s_w%d", m, kind, w), budget,
					func() { b.Solve(rho) })
				if kind != poisson.KindSpectral {
					b.Solve(rho)
					_, ex, ey := b.Planes()
					mb.MaxRelErr = maxFloat(poisson.MaxRelError(ex, refEx),
						poisson.MaxRelError(ey, refEy))
				}
				out = append(out, mb)
			}
		}
	}

	// Back-end rows: banded row legalization and one full cDP
	// improvement pass (reorder + swap + ISM + relocate) on a 5000-cell
	// circuit, serial and — on multicore hosts — at the session worker
	// count. Positions are restored between runs so every measurement
	// legalizes/refines the same input.
	{
		const n = 5000
		d := synth.Generate(synth.Spec{Name: "backend-micro", NumCells: n})
		std := d.MovableOf(netlist.StdCell)
		if len(d.Rows) == 0 {
			legalize.BuildRows(d, d.Cells[std[0]].H, 0)
		}
		saveX := make([]float64, len(d.Cells))
		saveY := make([]float64, len(d.Cells))
		snap := func() {
			for i := range d.Cells {
				saveX[i], saveY[i] = d.Cells[i].X, d.Cells[i].Y
			}
		}
		restore := func() {
			for i := range d.Cells {
				d.Cells[i].X, d.Cells[i].Y = saveX[i], saveY[i]
			}
		}
		counts := []int{1}
		if parallel.Count(workers) > 1 {
			counts = append(counts, parallel.Count(workers))
		}
		snap()
		for _, w := range counts {
			w := w
			out = append(out, timeKernel(fmt.Sprintf("legalize/Cells_%d_w%d", n, w), budget,
				func() {
					restore()
					if _, _, err := legalize.CellsWorkers(d, std, legalize.Abacus, w); err != nil {
						panic(err)
					}
				}))
		}
		restore()
		if _, _, err := legalize.CellsWorkers(d, std, legalize.Abacus, 1); err != nil {
			panic(err)
		}
		snap() // legalized layout is the detail-pass input
		for _, w := range counts {
			w := w
			out = append(out, timeKernel(fmt.Sprintf("detail/Pass_%d_w%d", n, w), budget,
				func() {
					restore()
					if _, err := detail.Place(d, std, detail.Options{Passes: 1, Workers: w}); err != nil {
						panic(err)
					}
				}))
		}
	}

	// The fused WA wirelength kernel and the flat-view exact HPWL, at a
	// small and a large design scale (the data-oriented hot path).
	for _, cells := range []int{2000, 12000} {
		d := synth.Generate(synth.Spec{
			Name: fmt.Sprintf("wl-micro-%d", cells), NumCells: cells, NumMovableMacros: 4,
		})
		idx := d.Movable()
		cv := d.Compile()
		wl := wirelength.NewCompiled(cv, idx, 2.0)
		wl.Workers = 1
		grad := make([]float64, 2*len(idx))
		out = append(out,
			timeKernel(fmt.Sprintf("wirelength/CostAndGradient_%d_w1", cells), budget,
				func() { wl.CostAndGradient(grad) }),
			timeKernel(fmt.Sprintf("netlist/HPWL_%d", cells), budget,
				func() { cv.HPWL() }),
		)
		if parallel.Count(workers) > 1 {
			wide := wirelength.NewCompiled(cv, idx, 2.0)
			wide.Workers = workers
			out = append(out, timeKernel(
				fmt.Sprintf("wirelength/CostAndGradient_%d_w%d", cells, parallel.Count(workers)),
				budget, func() { wide.CostAndGradient(grad) }))
		}
	}
	return out
}

// BenchSuite runs the ePlace flow over the scaled ISPD05 suite and
// returns the BENCH_eplace.json payload. Each circuit gets a fresh
// recorder so per-circuit kernel aggregates do not bleed together; a
// kernel microbenchmark sweep rides along in the report header.
func BenchSuite(opt BenchOptions) *telemetry.BenchReport {
	if opt.Scale <= 0 {
		opt.Scale = 0.2
	}
	if opt.Poisson == "" {
		opt.Poisson = poisson.KindSpectral32
	}
	specs := synth.ISPD05Suite(opt.Scale)
	if opt.Circuits > 0 && opt.Circuits < len(specs) {
		specs = specs[:opt.Circuits]
	}
	report := telemetry.NewBenchReport("eplace-ispd05")
	report.Scale = opt.Scale
	report.Workers = parallel.Count(opt.Workers)
	report.Micro = KernelMicrobench(opt.Workers, 150*time.Millisecond)
	for _, spec := range specs {
		d := synth.Generate(spec)
		b := BenchDesign(d, RunOptions{Workers: opt.Workers, Poisson: opt.Poisson})
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "bench %-10s cells=%-6d HPWL=%.4g tau=%.3f legal=%v %.2fs\n",
				b.Benchmark, b.Cells, b.HPWL, b.Overflow, b.Legal, b.Seconds)
		}
		report.Add(b)
	}
	report.Sort()
	if !opt.SkipSweep {
		for _, b := range ScaleSweep(opt) {
			report.Add(b)
		}
	}
	return report
}

// ScaleSweep runs the large-circuit rows that make the scale trajectory
// visible in BENCH_eplace.json: one synthetic circuit per sweep size,
// placed by the multilevel V-cycle and — up to SweepFlatMax cells — by
// the flat flow, so the report carries the ML-vs-flat wall-clock and
// HPWL comparison at 10^5 cells (and 10^6 behind Million). Records are
// named "SWEEP<cells>/flat" and "SWEEP<cells>/ml".
func ScaleSweep(opt BenchOptions) []telemetry.BenchRecord {
	sizes := opt.SweepSizes
	if sizes == nil {
		sizes = []int{50000, 100000}
	}
	if opt.Million {
		sizes = append(append([]int(nil), sizes...), 1000000)
	}
	flatMax := opt.SweepFlatMax
	if flatMax <= 0 {
		flatMax = 100000
	}
	levels := opt.SweepLevels
	if levels <= 0 {
		levels = 5
	}
	var out []telemetry.BenchRecord
	for _, n := range sizes {
		spec := synth.Spec{Name: fmt.Sprintf("SWEEP%d", n), NumCells: n}
		variants := []struct {
			tag    string
			levels int
		}{{"ml", levels}}
		if n <= flatMax {
			variants = append([]struct {
				tag    string
				levels int
			}{{"flat", 1}}, variants...)
		}
		for _, v := range variants {
			d := synth.Generate(spec)
			b := BenchDesign(d, RunOptions{Workers: opt.Workers, Levels: v.levels, Poisson: opt.Poisson})
			b.Benchmark = fmt.Sprintf("%s/%s", spec.Name, v.tag)
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "sweep %-14s cells=%-7d HPWL=%.4g legal=%v %.2fs\n",
					b.Benchmark, b.Cells, b.HPWL, b.Legal, b.Seconds)
			}
			out = append(out, b)
		}
	}
	return out
}
