// Command eplace runs the full ePlace flow (mIP -> mGP -> mLG -> cGP ->
// cDP) on a Bookshelf benchmark or a generated synthetic circuit and
// writes the placed .pl plus a quality report — or, with -serve, runs
// as a placement job server that schedules many such flows.
//
// Usage:
//
//	eplace -aux design.aux -out placed.pl
//	eplace -synth 5000 -macros 10 -density 0.8 -out placed.pl
//	eplace -aux design.aux -solver cg          # FFTPL mode (CG baseline)
//	eplace -synth 5000 -trace out.jsonl -status :6060
//	eplace -synth 5000 -checkpoint-dir ckpt -checkpoint-every 100
//	eplace -synth 5000 -checkpoint-dir ckpt -resume    # continue after a crash
//	eplace -synth 5000 -eco edits.json -from prev.ckpt # incremental re-placement
//	eplace -serve :8080 -serve-dir jobs -serve-jobs 2  # placement-as-a-service
//
// SIGINT/SIGTERM cancel the flow context: an interrupted run flushes
// its telemetry sinks and (with -checkpoint-dir) persists a final
// mid-stage checkpoint before exiting, so -resume continues it with a
// bitwise-identical result. In -serve mode the same signals drain the
// HTTP server and checkpoint every running job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"eplace/internal/bookshelf"
	"eplace/internal/checkpoint"
	"eplace/internal/core"
	"eplace/internal/eco"
	"eplace/internal/metrics"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/server"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
	"eplace/internal/viz"
)

func main() {
	// Trap SIGINT/SIGTERM into context cancellation so every cleanup
	// below runs as a defer instead of being skipped by os.Exit: sinks
	// flush, the status server drains, running flows checkpoint. A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "eplace: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		auxPath  = flag.String("aux", "", "Bookshelf .aux file to place")
		synthN   = flag.Int("synth", 0, "generate a synthetic circuit with N standard cells")
		macros   = flag.Int("macros", 0, "movable macros for -synth")
		density  = flag.Float64("density", 1.0, "target density rho_t for -synth")
		seed     = flag.Int64("seed", 1, "synthetic circuit seed")
		outPath  = flag.String("out", "", "output .pl path (optional)")
		solver   = flag.String("solver", "nesterov", "global placement solver: nesterov | cg")
		poiKind  = flag.String("poisson", "", "eDensity Poisson backend: spectral | spectral32 (default spectral)")
		gridM    = flag.Int("grid", 0, "bin grid size per side (power of two, 0 = auto)")
		maxIters = flag.Int("iters", 0, "max GP iterations (0 = default 3000)")
		workers  = flag.Int("workers", 0, "gradient-kernel workers (0 = all cores, 1 = serial)")
		gpOnly   = flag.Bool("gp-only", false, "stop after global placement (no legalization)")
		levels   = flag.Int("levels", 1, "multilevel V-cycle levels (1 = flat; >1 clusters the netlist and warm-starts each level)")
		clCap    = flag.Float64("cluster-cap", 0, "cluster area cap as a multiple of the average std-cell area (0 = default)")
		heatmap  = flag.String("heatmap", "", "directory for the PGM heatmap of the final layout")
		quiet    = flag.Bool("q", false, "suppress progress output")

		tracePath = flag.String("trace", "", "write samples, stage spans and, at the end, kernel totals and counters as JSON lines to this file")
		csvPath   = flag.String("trace-csv", "", "write per-iteration telemetry as CSV to this file")
		statusAdr = flag.String("status", "", "serve live /status, /samples, expvar and pprof on this address (e.g. :6060)")

		ecoPath  = flag.String("eco", "", "apply an ECO edit script (JSON) and re-place incrementally; requires -from")
		fromPath = flag.String("from", "", "previous placement to warm-start -eco from: a .ckpt snapshot or a placed .pl")

		ckptDir   = flag.String("checkpoint-dir", "", "persist crash-safe flow snapshots into this directory")
		ckptEvery = flag.Int("checkpoint-every", 0, "also snapshot every N global-placement iterations (0 = stage boundaries only)")
		resume    = flag.Bool("resume", false, "continue from <checkpoint-dir>/latest.ckpt instead of starting fresh")
		digests   = flag.Bool("digests", false, "print the per-stage golden determinism digests")

		serveAddr  = flag.String("serve", "", "run as a placement job server on this address (e.g. :8080)")
		serveDir   = flag.String("serve-dir", "eplace-jobs", "job state root for -serve (checkpoints, traces, results)")
		serveJobs  = flag.Int("serve-jobs", 2, "concurrent placements for -serve")
		serveEvery = flag.Int("serve-every", 25, "mid-stage checkpoint cadence (GP iterations) for -serve jobs")
	)
	flag.Parse()

	if *serveAddr != "" {
		return serve(ctx, *serveAddr, *serveDir, *serveJobs, *workers, *serveEvery, *quiet)
	}

	var d *netlist.Design
	var err error
	switch {
	case *auxPath != "":
		d, err = bookshelf.ReadAux(*auxPath)
		if err != nil {
			return fmt.Errorf("reading %s: %w", *auxPath, err)
		}
	case *synthN > 0:
		d = synth.Generate(synth.Spec{
			Name:             "synthetic",
			NumCells:         *synthN,
			NumMovableMacros: *macros,
			TargetDensity:    *density,
			Seed:             *seed,
		})
	default:
		fmt.Fprintln(os.Stderr, "eplace: need -aux FILE, -synth N, or -serve ADDR")
		flag.Usage()
		return errors.New("no design given")
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("invalid design: %w", err)
	}
	if !*quiet {
		fmt.Printf("design %s: %s\n", d.Name, d.Stats())
	}

	// Telemetry: assemble the sink stack the recorder fans out to. The
	// recorder is closed by defer so an interrupted or failed run still
	// flushes every sink (Close is idempotent; the success path also
	// closes explicitly to surface flush errors).
	var sinks []telemetry.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		sinks = append(sinks, telemetry.NewJSONLSink(f))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("trace CSV file: %w", err)
		}
		sinks = append(sinks, telemetry.NewCSVSink(f))
	}
	var ring *telemetry.RingSink
	if *statusAdr != "" {
		ring = telemetry.NewRingSink(4096)
		sinks = append(sinks, ring)
	}
	var rec *telemetry.Recorder
	if len(sinks) > 0 {
		rec = telemetry.New(sinks...)
		rec.SetWorkers(*workers)
		defer rec.Close()
	}
	if *statusAdr != "" {
		srv, err := telemetry.ServeStatus(*statusAdr, rec, ring)
		if err != nil {
			return fmt.Errorf("status server: %w", err)
		}
		defer srv.Close()
		if !*quiet {
			fmt.Printf("status        http://%s/status (pprof on /debug/pprof/)\n", srv.Addr())
		}
	}

	gp := core.Options{GridM: *gridM, MaxIters: *maxIters, Workers: *workers, Telemetry: rec}
	if *solver == "cg" {
		gp.Solver = core.SolverCG
	} else if *solver != "nesterov" {
		return fmt.Errorf("unknown solver %q", *solver)
	}
	gp.Poisson = *poiKind
	if err := poisson.CheckKind(*poiKind); err != nil {
		return err
	}
	gp.CheckpointEvery = *ckptEvery

	// Incremental (ECO) mode: warm-start from a previous placement of
	// the same design source, apply the edit script, and re-place only
	// the affected cells.
	if *ecoPath != "" {
		return runEco(ctx, d, gp, *ecoPath, *fromPath, *outPath, *ckptDir, *digests, *quiet)
	}
	if *fromPath != "" {
		return errors.New("-from requires -eco EDITS.json")
	}

	// Checkpointing and resume: the flow snapshots itself at stage
	// boundaries (plus every -checkpoint-every GP iterations) and can
	// continue from latest.ckpt with a bitwise-identical result.
	flow := core.FlowOptions{GP: gp, SkipLegalization: *gpOnly, Levels: *levels, ClusterCap: *clCap}
	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		mgr, err := checkpoint.NewManager(*ckptDir)
		if err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		flow.Checkpoint = mgr
		if *resume {
			st, err := mgr.Load()
			if err != nil {
				return fmt.Errorf("loading checkpoint: %w", err)
			}
			flow.Resume = st
			if !*quiet {
				fmt.Printf("resuming      phase %q of %q\n", st.Phase, st.DesignName)
			}
		}
	}
	res, err := core.PlaceContext(ctx, d, flow)
	if errors.Is(err, core.ErrCanceled) {
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "eplace: interrupted; final checkpoint saved, continue with -resume\n")
		}
		return err
	}
	if err != nil {
		return fmt.Errorf("placement failed: %w", err)
	}

	rep := metrics.Measure(d.Name, "ePlace", d, *gridM, 0, res.Legal)
	fmt.Printf("HPWL          %.6g\n", rep.HPWL)
	fmt.Printf("scaled HPWL   %.6g\n", rep.ScaledHPWL)
	fmt.Printf("overflow tau  %.4f\n", rep.Overflow)
	fmt.Printf("legal         %v\n", rep.Legal)
	for _, ml := range res.ML {
		fmt.Printf("mGP/L%-8d %d cells, %d iters, tau %.4f\n",
			ml.Level, ml.Cells, ml.Result.Iterations, ml.Result.Overflow)
	}
	fmt.Printf("mGP           %d iters, tau %.4f, %d backtracks\n",
		res.MGP.Iterations, res.MGP.Overflow, res.MGP.Backtracks)
	if res.MixedSize {
		fmt.Printf("mLG           j=%d, Om %.4g -> %.4g\n",
			res.MLG.OuterIterations, res.MLG.OmBefore, res.MLG.OmAfter)
		fmt.Printf("cGP           %d iters, tau %.4f\n", res.CGP.Iterations, res.CGP.Overflow)
	}
	for _, stage := range res.Stages {
		fmt.Printf("time %-8s %v\n", stage.Name, stage.Time.Round(1e6))
	}
	if *digests {
		for _, sd := range res.Digests {
			fmt.Printf("digest %-10s %s (%d iters)\n", sd.Stage, sd.Hex(), sd.Iterations)
		}
	}

	if err := rec.Close(); err != nil {
		return fmt.Errorf("closing telemetry sinks: %w", err)
	}

	if *heatmap != "" {
		if err := os.MkdirAll(*heatmap, 0o755); err != nil {
			return fmt.Errorf("heatmap dir: %w", err)
		}
		m := 128
		layout := viz.RasterizeLayout(d, m)
		if err := viz.SavePGM(*heatmap+"/layout.pgm", layout, m); err != nil {
			return fmt.Errorf("heatmap: %w", err)
		}
		if !*quiet {
			fmt.Printf("wrote %s/layout.pgm\n", *heatmap)
		}
	}

	if *outPath != "" {
		if err := bookshelf.WritePL(d, *outPath); err != nil {
			return fmt.Errorf("writing %s: %w", *outPath, err)
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *outPath)
		}
	}
	return nil
}

// runEco executes `-eco edits.json -from prev.ckpt|.pl`: load the
// previous placement into d (which must be built from the same design
// source as the original run), apply the edit script, and run the
// incremental re-placement.
func runEco(ctx context.Context, d *netlist.Design, gp core.Options, ecoPath, fromPath, outPath, ckptDir string, digests, quiet bool) error {
	if fromPath == "" {
		return errors.New("-eco requires -from PREV.ckpt or -from PREV.pl")
	}
	if strings.HasSuffix(fromPath, ".ckpt") {
		st, err := checkpoint.ReadFile(fromPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", fromPath, err)
		}
		if err := core.WarmStart(d, st); err != nil {
			return err
		}
		// Stay on the backend the warm-start positions came from unless
		// one was selected explicitly.
		if gp.Poisson == "" {
			gp.Poisson = st.Poisson
		}
	} else {
		if err := bookshelf.ReadPL(d, fromPath); err != nil {
			return fmt.Errorf("loading %s: %w", fromPath, err)
		}
	}
	script, err := eco.LoadScript(ecoPath)
	if err != nil {
		return err
	}
	prep, err := eco.Prepare(d, script, eco.PlanOptions{})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Println(prep.Plan.String())
	}
	opt := core.ECOOptions{GP: gp}
	if ckptDir != "" {
		mgr, err := checkpoint.NewManager(ckptDir)
		if err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		opt.Checkpoint = mgr
	}
	res, err := core.PlaceECO(ctx, d, prep.Plan, opt)
	if err != nil {
		return err
	}
	if res.NoOp {
		fmt.Println("eco           structural no-op: previous placement reused")
	} else {
		fmt.Printf("eGP           %d iters, tau %.4f (%d active / %d frozen cells)\n",
			res.GP.Iterations, res.GP.Overflow, res.ActiveCells, res.FrozenCells)
	}
	fmt.Printf("HPWL          %.6g\n", res.HPWL)
	fmt.Printf("legal         %v\n", res.Legal)
	for _, stage := range res.Stages {
		fmt.Printf("time %-8s %v\n", stage.Name, stage.Time.Round(1e6))
	}
	if digests {
		for _, sd := range res.Digests {
			fmt.Printf("digest %-10s %s (%d iters)\n", sd.Stage, sd.Hex(), sd.Iterations)
		}
	}
	if outPath != "" {
		if err := bookshelf.WritePL(d, outPath); err != nil {
			return fmt.Errorf("writing %s: %w", outPath, err)
		}
		if !quiet {
			fmt.Printf("wrote %s\n", outPath)
		}
	}
	return nil
}

// serve runs the placement job server until the context is canceled
// (SIGINT/SIGTERM), then drains HTTP and checkpoints every running job
// before returning.
func serve(ctx context.Context, addr, dir string, jobs, workersPerJob, every int, quiet bool) error {
	cfg := server.Config{
		MaxConcurrent:   jobs,
		WorkersPerJob:   workersPerJob,
		CheckpointEvery: every,
		Dir:             dir,
	}
	if !quiet {
		cfg.Log = os.Stderr
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	h, err := server.ListenAndServe(addr, s)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("serving placement jobs on http://%s/jobs (state in %s)\n", h.Addr(), dir)
	}
	<-ctx.Done()
	if !quiet {
		fmt.Println("shutting down: draining HTTP, checkpointing running jobs")
	}
	if err := h.Close(); err != nil {
		return err
	}
	return s.Close()
}
