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
//	experiments -exp eco -circuits 4000     # warm-vs-cold ECO speedups
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
		quiet    = flag.Bool("q", false, "suppress per-run progress")
		poiKind  = flag.String("poisson", "", "eDensity Poisson backend: spectral | spectral32")
	)
	flag.Parse()

	opt := experiments.RunOptions{GridM: *gridM, MaxIters: *maxIters, Workers: *workers, Poisson: *poiKind}
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
		case "eco":
			if err := experiments.ECOStudy(experiments.ECOStudyOptions{
				Cells: *circuits, GridM: *gridM, Workers: *workers, Log: progress,
			}, out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: eco study: %v\n", err)
				os.Exit(1)
			}
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
