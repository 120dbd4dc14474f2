// Package metrics computes the evaluation quantities of the paper's
// tables with the official contest semantics: HPWL, density overflow
// tau, the ISPD 2006 scaled HPWL penalty (sHPWL = HPWL * (1 + 0.01 *
// tau_avg)), and total object overlap.
package metrics

import (
	"eplace/internal/grid"
	"eplace/internal/netlist"
)

// Report is the per-circuit scorecard used by the experiment tables.
type Report struct {
	Circuit    string
	Placer     string
	HPWL       float64
	ScaledHPWL float64
	// Overflow is the total density overflow tau in [0, 1].
	Overflow float64
	// OverflowPerBin is the ISPD 2006 per-bin average in percent.
	OverflowPerBin float64
	Overlap        float64
	Seconds        float64
	Legal          bool
	Failed         bool
}

// rasterize fills a grid from the design's current movable and fixed
// cells (fillers excluded: they are placer-internal).
func rasterize(d *netlist.Design, m int) *grid.Grid {
	g := grid.New(d.Region, m)
	for i := range d.Cells {
		c := &d.Cells[i]
		switch {
		case c.Kind == netlist.Filler:
		case c.Fixed:
			g.AddFixed(c.Rect())
		default:
			g.AddMovable(c.X, c.Y, c.W, c.H)
		}
	}
	return g
}

// ScaledHPWL returns the ISPD 2006 contest score
// sHPWL = HPWL * (1 + 0.01 * tau_avg), where tau_avg is the average
// per-bin percentage overflow against the benchmark target density.
func ScaledHPWL(d *netlist.Design, m int) float64 {
	if m == 0 {
		m = grid.ChooseM(len(d.Cells))
	}
	tauAvg := rasterize(d, m).OverflowPerBin(d.TargetDensity)
	return d.HPWL() * (1 + 0.01*tauAvg)
}

// Measure builds a full report for the current layout.
func Measure(circuit, placer string, d *netlist.Design, m int, seconds float64, legal bool) Report {
	if m == 0 {
		m = grid.ChooseM(len(d.Cells))
	}
	g := rasterize(d, m)
	return Report{
		Circuit:        circuit,
		Placer:         placer,
		HPWL:           d.HPWL(),
		ScaledHPWL:     d.HPWL() * (1 + 0.01*g.OverflowPerBin(d.TargetDensity)),
		Overflow:       g.Overflow(d.TargetDensity),
		OverflowPerBin: g.OverflowPerBin(d.TargetDensity),
		Overlap:        d.TotalOverlap(d.Movable()),
		Seconds:        seconds,
		Legal:          legal,
	}
}
