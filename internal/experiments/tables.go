package experiments

import (
	"fmt"
	"io"
	"math"

	"eplace/internal/metrics"
	"eplace/internal/synth"
)

// TableResult holds one regenerated table.
type TableResult struct {
	Title    string
	Circuits []string
	Placers  []Placer
	// Cell[circuit][placer] is the per-run report.
	Cell map[string]map[Placer]metrics.Report
}

// runSuite executes every placer on every circuit of the suite.
func runSuite(title string, specs []synth.Spec, placers []Placer, opt RunOptions, progress io.Writer) *TableResult {
	tr := &TableResult{Title: title, Placers: placers, Cell: map[string]map[Placer]metrics.Report{}}
	for _, spec := range specs {
		tr.Circuits = append(tr.Circuits, spec.Name)
		tr.Cell[spec.Name] = map[Placer]metrics.Report{}
		for _, p := range placers {
			if progress != nil {
				fmt.Fprintf(progress, "# running %-9s on %-10s ...", p, spec.Name)
			}
			rep := RunSpec(spec, p, opt)
			tr.Cell[spec.Name][p] = rep
			if progress != nil {
				fmt.Fprintf(progress, " HPWL=%.4g sHPWL=%.4g tau=%.3f t=%.1fs legal=%v failed=%v\n",
					rep.HPWL, rep.ScaledHPWL, rep.Overflow, rep.Seconds, rep.Legal, rep.Failed)
			}
		}
	}
	return tr
}

// metricOf selects the table's quality metric.
type metricOf func(metrics.Report) float64

func hpwlMetric(r metrics.Report) float64   { return r.HPWL }
func scaledMetric(r metrics.Report) float64 { return r.ScaledHPWL }

// print renders the table in the paper's layout: one row per circuit,
// one column per placer, then average quality gap vs ePlace, average
// runtime ratio, and (when asked) average density-overflow ratio.
func (tr *TableResult) print(w io.Writer, metric metricOf, withOverflow bool) {
	fmt.Fprintf(w, "%s\n", tr.Title)
	fmt.Fprintf(w, "%-11s", "Circuit")
	for _, p := range tr.Placers {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	for _, c := range tr.Circuits {
		fmt.Fprintf(w, "%-11s", c)
		for _, p := range tr.Placers {
			rep := tr.Cell[c][p]
			if rep.Failed {
				fmt.Fprintf(w, " %12s", "N/A")
			} else {
				fmt.Fprintf(w, " %12.4g", metric(rep))
			}
		}
		fmt.Fprintln(w)
	}
	// Average quality gap vs ePlace (geometric-mean style arithmetic
	// average of per-circuit ratios, as the paper's "Average HPWL" row).
	fmt.Fprintf(w, "%-11s", "AvgGap%")
	for _, p := range tr.Placers {
		gap, n := 0.0, 0
		for _, c := range tr.Circuits {
			base := tr.Cell[c][EPlace]
			rep := tr.Cell[c][p]
			if rep.Failed || base.Failed || metric(base) == 0 {
				continue
			}
			gap += metric(rep)/metric(base) - 1
			n++
		}
		if n == 0 {
			fmt.Fprintf(w, " %12s", "N/A")
		} else {
			fmt.Fprintf(w, " %11.2f%%", 100*gap/float64(n))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-11s", "AvgRuntime")
	for _, p := range tr.Placers {
		ratio, n := 0.0, 0
		for _, c := range tr.Circuits {
			base := tr.Cell[c][EPlace]
			rep := tr.Cell[c][p]
			if rep.Failed || base.Failed || base.Seconds == 0 {
				continue
			}
			ratio += rep.Seconds / base.Seconds
			n++
		}
		if n == 0 {
			fmt.Fprintf(w, " %12s", "N/A")
		} else {
			fmt.Fprintf(w, " %11.2fx", ratio/float64(n))
		}
	}
	fmt.Fprintln(w)
	if withOverflow {
		fmt.Fprintf(w, "%-11s", "AvgOverflow")
		for _, p := range tr.Placers {
			ratio, n := 0.0, 0
			for _, c := range tr.Circuits {
				base := tr.Cell[c][EPlace]
				rep := tr.Cell[c][p]
				if rep.Failed || base.Failed {
					continue
				}
				den := math.Max(base.OverflowPerBin, 1e-6)
				ratio += math.Max(rep.OverflowPerBin, 1e-6) / den
				n++
			}
			if n == 0 {
				fmt.Fprintf(w, " %12s", "N/A")
			} else {
				fmt.Fprintf(w, " %11.2fx", ratio/float64(n))
			}
		}
		fmt.Fprintln(w)
	}
	// Wins row: circuits where this placer has the best metric.
	fmt.Fprintf(w, "%-11s", "Wins")
	for _, p := range tr.Placers {
		wins := 0
		for _, c := range tr.Circuits {
			best, bestP := math.Inf(1), Placer("")
			for _, q := range tr.Placers {
				rep := tr.Cell[c][q]
				if rep.Failed {
					continue
				}
				if v := metric(rep); v < best {
					best, bestP = v, q
				}
			}
			if bestP == p {
				wins++
			}
		}
		fmt.Fprintf(w, " %12d", wins)
	}
	fmt.Fprintln(w)
}

// Table1 regenerates Table I: HPWL on the ISPD 2005-like suite
// (std-cell mode: macros fixed).
func Table1(scale float64, opt RunOptions, out, progress io.Writer) *TableResult {
	tr := runSuite("Table I: HPWL on ISPD2005-like suite (std-cell)", synth.ISPD05Suite(scale), AllPlacers, opt, progress)
	tr.print(out, hpwlMetric, false)
	return tr
}

// Table2 regenerates Table II: scaled HPWL and density overflow on the
// ISPD 2006-like suite with benchmark target densities.
func Table2(scale float64, opt RunOptions, out, progress io.Writer) *TableResult {
	// The paper's Table II lineup has no FFTPL column.
	tr := runSuite("Table II: scaled HPWL on ISPD2006-like suite (rho_t targets)", synth.ISPD06Suite(scale), Table23Placers, opt, progress)
	tr.print(out, scaledMetric, true)
	return tr
}

// Table3 regenerates Table III: HPWL on the MMS-like suite with movable
// macros (full mixed-size flow).
func Table3(scale float64, opt RunOptions, out, progress io.Writer) *TableResult {
	tr := runSuite("Table III: (scaled) HPWL on MMS-like suite (mixed-size)", synth.MMSSuite(scale), Table23Placers, opt, progress)
	tr.print(out, scaledMetric, true)
	return tr
}
