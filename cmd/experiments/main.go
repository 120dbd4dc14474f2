// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic suites (see DESIGN.md for the
// experiment index).
//
// Usage:
//
//	experiments -exp table1                 # Table I  (ISPD2005-like)
//	experiments -exp table2                 # Table II (ISPD2006-like)
//	experiments -exp table3                 # Table III (MMS-like)
//	experiments -exp fig2|fig3|fig5|fig6|fig7
//	experiments -exp ablate-bktrk|ablate-precond|ablate-filler
//	experiments -exp linesearch|rotation
//	experiments -exp bench -bench-out BENCH_eplace.json
//	experiments -exp eco -bench-out BENCH_eplace.json   # warm-vs-cold ECO speedups
//	experiments -exp service -jobs 200 -service-out BENCH_service.json
//	experiments -exp all -scale 0.5         # everything, half-size circuits
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eplace/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see package comment)")
		scale    = flag.Float64("scale", 1.0, "circuit size scale factor")
		gridM    = flag.Int("grid", 0, "bin grid size (0 = auto)")
		maxIters = flag.Int("iters", 0, "max GP iterations (0 = default)")
		circuits = flag.Int("circuits", 0, "limit suite size for ablations/fig7; base cell count for -exp eco (0 = all/default)")
		outDir   = flag.String("outdir", "", "directory for position CSV dumps (fig3)")
		workers  = flag.Int("workers", 0, "gradient-kernel workers (0 = all cores)")
		benchOut = flag.String("bench-out", "BENCH_eplace.json", "output path for -exp bench")
		quiet    = flag.Bool("q", false, "suppress per-run progress")
		million  = flag.Bool("million", false, "add a 1M-cell multilevel row to -exp bench")
		levels   = flag.Int("levels", 0, "V-cycle depth for the bench scale sweep (0 = default 5)")
		noSweep  = flag.Bool("no-sweep", false, "skip the large-circuit scale sweep in -exp bench")
		poiKind  = flag.String("poisson", "", "eDensity Poisson backend: spectral | spectral32 (bench default spectral32)")

		jobs       = flag.Int("jobs", 0, "job count for -exp service (0 = default 200)")
		concurrent = flag.Int("concurrent", 0, "scheduler slots for -exp service (0 = default 4)")
		serviceOut = flag.String("service-out", "BENCH_service.json", "output path for -exp service")
	)
	flag.Parse()

	opt := experiments.RunOptions{GridM: *gridM, MaxIters: *maxIters, Poisson: *poiKind}
	out := io.Writer(os.Stdout)
	progress := io.Writer(os.Stderr)
	if *quiet {
		progress = io.Discard
	}

	run := func(id string) {
		switch id {
		case "table1":
			experiments.Table1(*scale, opt, out, progress)
		case "table2":
			experiments.Table2(*scale, opt, out, progress)
		case "table3":
			experiments.Table3(*scale, opt, out, progress)
		case "fig2":
			experiments.Fig2(*scale, opt, out)
		case "fig3":
			experiments.Fig3(*scale, opt, []int{0, 5, 20, 60, 150, 300}, *outDir, out)
		case "fig5":
			experiments.Fig5(*scale, opt, out)
		case "fig6":
			experiments.Fig6(*scale, opt, out)
		case "fig7":
			experiments.Fig7(*scale, opt, *circuits, out)
		case "ablate-bktrk":
			experiments.AblateBacktracking(*scale, *circuits, opt, out)
		case "ablate-precond":
			experiments.AblatePreconditioner(*scale, *circuits, opt, out)
		case "ablate-filler":
			experiments.AblateFillerPhase(*scale, *circuits, opt, out)
		case "linesearch":
			experiments.LineSearchStudy(*scale, opt, out)
		case "rotation":
			experiments.RotationStudy(*scale, *circuits, opt, out)
		case "bench":
			report := experiments.BenchSuite(experiments.BenchOptions{
				Scale: *scale, Circuits: *circuits, Workers: *workers, Log: progress,
				Million: *million, SweepLevels: *levels, SkipSweep: *noSweep,
				Poisson: *poiKind,
			})
			if err := report.WriteFile(*benchOut); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "wrote %s (%d records)\n", *benchOut, len(report.Records))
		case "eco":
			cells := *circuits
			report, err := experiments.ECOStudy(experiments.ECOStudyOptions{
				Cells: cells, GridM: *gridM, Workers: *workers, Log: progress,
			}, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: eco study: %v\n", err)
				os.Exit(1)
			}
			if err := experiments.MergeBenchFile(*benchOut, "ECO-", report); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "merged %d ECO records into %s\n", len(report.Records), *benchOut)
		case "service":
			rep, err := experiments.ServiceLoad(experiments.ServiceOptions{
				Jobs:          *jobs,
				Concurrent:    *concurrent,
				WorkersPerJob: *workers,
				Log:           progress,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: service load: %v\n", err)
				os.Exit(1)
			}
			if rep.DigestChecks != rep.DigestMatches {
				fmt.Fprintf(os.Stderr, "experiments: service determinism violated: %d/%d digest matches\n",
					rep.DigestMatches, rep.DigestChecks)
				os.Exit(1)
			}
			if err := rep.WriteFile(*serviceOut); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *serviceOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "wrote %s (%d jobs, %.1f done/s, %d preemptions)\n",
				*serviceOut, rep.Jobs, rep.JobsPerSecond, rep.Preemptions)
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Fprintln(out)
	}

	if *exp == "all" {
		for _, id := range []string{
			"table1", "table2", "table3",
			"fig2", "fig3", "fig5", "fig6", "fig7",
			"ablate-bktrk", "ablate-precond", "ablate-filler", "linesearch", "rotation",
		} {
			fmt.Fprintf(out, "==== %s ====\n", id)
			run(id)
		}
		return
	}
	run(*exp)
}
