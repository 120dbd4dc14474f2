// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VII) on the synthetic benchmark suites: the
// ISPD 2005 HPWL table, the ISPD 2006 scaled-HPWL/density-overflow
// table, the MMS mixed-size table, the convergence and snapshot figures,
// the runtime breakdown, and the ablations of Secs. V-C, V-D and VI-B.
// cmd/experiments is the CLI front end.
package experiments

import (
	"fmt"
	"time"

	"eplace/internal/baseline/bellshape"
	"eplace/internal/baseline/mincut"
	"eplace/internal/baseline/quadratic"
	"eplace/internal/core"
	"eplace/internal/detail"
	"eplace/internal/legalize"
	"eplace/internal/metrics"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// Placer identifies one competitor.
type Placer string

// The placer lineup: ePlace plus one representative per category the
// paper compares against (see DESIGN.md, Substitutions).
const (
	EPlace    Placer = "ePlace"   // this paper
	FFTPL     Placer = "FFTPL"    // eDensity + CG line search [10]
	Quadratic Placer = "QuadPL"   // FastPlace3-style quadratic
	BellShape Placer = "BellPL"   // APlace/NTUplace-style nonlinear
	MinCut    Placer = "MinCutPL" // Capo-style min-cut
)

// AllPlacers is the Table I lineup.
var AllPlacers = []Placer{MinCut, Quadratic, BellShape, FFTPL, EPlace}

// Table23Placers is the Table II/III lineup: the paper's later tables
// carry no FFTPL column.
var Table23Placers = []Placer{MinCut, Quadratic, BellShape, EPlace}

// RunOptions tunes a harness run.
type RunOptions struct {
	// GridM forces the bin grid (0 = auto).
	GridM int
	// MaxIters bounds GP iterations (0 = engine default).
	MaxIters int
	// SkipDetail measures global placement + legalization only.
	SkipDetail bool
	// Workers is the gradient-kernel worker count (0 = all cores).
	Workers int
	// Poisson selects the eDensity Poisson backend by name
	// (poisson.Kinds; "" = spectral float64).
	Poisson string
	// Telemetry, when non-nil, receives samples, spans and counters
	// from whichever placer runs.
	Telemetry *telemetry.Recorder
}

// gp is the part of the options every ePlace flow of the harness takes.
func (o RunOptions) gp() core.Options {
	return core.Options{
		GridM: o.GridM, MaxIters: o.MaxIters,
		Workers: o.Workers, Poisson: o.Poisson, Telemetry: o.Telemetry,
	}
}

// Run places design d with the given placer and returns the scorecard.
// The design is modified in place: all placers share the same mLG,
// legalization and detail-placement backend, mirroring the paper's use
// of one common detail placer (Sec. VII).
func Run(d *netlist.Design, p Placer, opt RunOptions) metrics.Report {
	start := time.Now()
	stdCells := d.MovableOf(netlist.StdCell)
	movMacros := d.MovableOf(netlist.Macro)
	movable := d.Movable()
	failed := false

	gpOpt := opt.gp()

	switch p {
	case EPlace, FFTPL:
		if p == FFTPL {
			gpOpt.Solver = core.SolverCG
		}
		flowRes, err := core.Place(d, core.FlowOptions{
			GP:         gpOpt,
			SkipDetail: opt.SkipDetail,
		})
		elapsed := time.Since(start).Seconds()
		rep := metrics.Measure(d.Name, string(p), d, opt.GridM, elapsed, flowRes.Legal)
		rep.Failed = err != nil
		return rep
	case Quadratic:
		opt.Telemetry.SetStage(string(Quadratic))
		qres := quadratic.Place(d, movable, quadratic.Options{GridM: opt.GridM, Telemetry: opt.Telemetry})
		failed = qres.Iterations == 0 && len(movable) > 0
	case BellShape:
		opt.Telemetry.SetStage(string(BellShape))
		bres := bellshape.Place(d, movable, bellshape.Options{GridM: opt.GridM, Workers: opt.Workers, Telemetry: opt.Telemetry})
		failed = bres.OuterIterations == 0 && len(movable) > 0
	case MinCut:
		opt.Telemetry.SetStage(string(MinCut))
		mincut.Place(d, movable, mincut.Options{Telemetry: opt.Telemetry})
	default:
		panic(fmt.Sprintf("experiments: unknown placer %q", p))
	}

	// Shared back end: macro legalization, row legalization, detail.
	legal := finishLayout(d, stdCells, movMacros, opt, &failed)
	elapsed := time.Since(start).Seconds()
	rep := metrics.Measure(d.Name, string(p), d, opt.GridM, elapsed, legal)
	rep.Failed = failed
	return rep
}

// finishLayout applies the common mLG + legalize + detail back end used
// for the baseline placers.
func finishLayout(d *netlist.Design, stdCells, movMacros []int, opt RunOptions, failed *bool) bool {
	if len(movMacros) > 0 {
		res := legalize.Macros(d, movMacros, legalize.MLGOptions{Workers: opt.Workers})
		if !res.Legal {
			*failed = true
			return false
		}
	}
	if len(d.Rows) == 0 {
		return false
	}
	if _, _, err := legalize.CellsWorkers(d, stdCells, legalize.Abacus, opt.Workers); err != nil {
		*failed = true
		return false
	}
	if !opt.SkipDetail {
		if _, err := detail.Place(d, stdCells, detail.Options{Workers: opt.Workers}); err != nil {
			*failed = true
			return false
		}
	}
	legal := legalize.CheckLegal(d, stdCells) == nil
	if legal && len(movMacros) > 0 {
		legal = legalize.CheckMacrosLegal(d, movMacros) == nil
	}
	return legal
}

// RunSpec generates the circuit for spec and runs placer p on it.
func RunSpec(spec synth.Spec, p Placer, opt RunOptions) metrics.Report {
	d := synth.Generate(spec)
	return Run(d, p, opt)
}

// MIPOnly runs just the quadratic initial placement (used by figures
// that start from v_mIP).
func MIPOnly(d *netlist.Design) {
	qp.Place(d, d.Movable())
}
