package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"eplace/internal/core"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/qp"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// mmsAdaptec1 returns the MMS ADAPTEC1 analog used by Figures 2-6.
func mmsAdaptec1(scale float64) synth.Spec {
	for _, s := range synth.MMSSuite(scale) {
		if s.Name == "ADAPTEC1" {
			return s
		}
	}
	panic("experiments: ADAPTEC1 missing from MMS suite")
}

// Fig2 regenerates Figure 2: total HPWL and object overlap across the
// mIP/mGP/mLG/cGP/cDP stages on MMS ADAPTEC1. One line per iteration:
// stage, iteration, HPWL, overflow tau, overlap-area estimate.
func Fig2(scale float64, opt RunOptions, out io.Writer) {
	d := synth.Generate(mmsAdaptec1(scale))
	tr := &core.Trace{}
	gp := opt.gp()
	gp.Telemetry = telemetry.New(tr)
	res, err := core.Place(d, core.FlowOptions{GP: gp})
	if err != nil {
		fmt.Fprintf(out, "# flow failed: %v\n", err)
		return
	}
	movableArea := d.MovableArea()
	fmt.Fprintf(out, "# Figure 2: HPWL and overlap vs iteration, MMS-like ADAPTEC1\n")
	fmt.Fprintf(out, "# final HPWL=%.6g legal=%v\n", res.HPWL, res.Legal)
	fmt.Fprintf(out, "stage,iter,hpwl,tau,ovlp_est\n")
	for _, s := range tr.Samples {
		fmt.Fprintf(out, "%s,%d,%.6g,%.4f,%.6g\n",
			s.Stage, s.Iteration, s.HPWL, s.Overflow, s.Overflow*movableArea)
	}
	// Stage summary (the figure's phase boundaries).
	for _, stage := range []string{"mGP", "cGP-filler", "cGP"} {
		ss := tr.Stage(stage)
		if len(ss) == 0 {
			continue
		}
		first, last := ss[0], ss[len(ss)-1]
		fmt.Fprintf(out, "# %s: %d iters, HPWL %.6g -> %.6g, tau %.3f -> %.3f\n",
			stage, len(ss), first.HPWL, last.HPWL, first.Overflow, last.Overflow)
	}
}

// Fig3 regenerates Figure 3: mGP snapshots on MMS ADAPTEC1. For each
// snapshot iteration it reports W (HPWL) and O (total overlap area) and
// optionally dumps cell positions as CSV files under dir (skipped when
// dir is empty).
func Fig3(scale float64, opt RunOptions, snapshots []int, dir string, out io.Writer) {
	fmt.Fprintf(out, "# Figure 3: mGP snapshots on MMS-like ADAPTEC1\n")
	fmt.Fprintf(out, "iter,W,O\n")
	for _, iters := range snapshots {
		d := synth.Generate(mmsAdaptec1(scale))
		movable := d.Movable()
		qp.Place(d, movable)
		core.InsertFillers(d, 2)
		gp := opt.gp()
		gp.MaxIters, gp.MinIters = maxInt(iters, 1), maxInt(iters, 1)
		gp.TargetOverflow = 1e-12
		if iters > 0 {
			_, _ = core.PlaceGlobal(d, d.Movable(), gp, "mGP", 0)
		}
		w := d.HPWL()
		o := d.TotalOverlap(movable)
		fmt.Fprintf(out, "%d,%.6g,%.6g\n", iters, w, o)
		if dir != "" {
			writePositionsCSV(d, filepath.Join(dir, fmt.Sprintf("fig3_iter%04d.csv", iters)))
		}
	}
}

// Fig5 regenerates Figure 5: macro distribution before/after mLG with
// the W, D and Om metrics of Eq. (14).
func Fig5(scale float64, opt RunOptions, out io.Writer) {
	d := synth.Generate(mmsAdaptec1(scale))
	movable := d.Movable()
	qp.Place(d, movable)
	core.InsertFillers(d, 2)
	gp := opt.gp()
	_, _ = core.PlaceGlobal(d, d.Movable(), gp, "mGP", 0)
	d.RemoveFillers()
	macros := d.MovableOf(netlist.Macro)
	res := legalize.Macros(d, macros, legalize.MLGOptions{})
	fmt.Fprintf(out, "# Figure 5: mLG on MMS-like ADAPTEC1 (std cells fixed)\n")
	fmt.Fprintf(out, "phase,W,D,Om\n")
	fmt.Fprintf(out, "before,%.6g,%.6g,%.6g\n", res.WBefore, res.DBefore, res.OmBefore)
	fmt.Fprintf(out, "after,%.6g,%.6g,%.6g\n", res.WAfter, res.DAfter, res.OmAfter)
	fmt.Fprintf(out, "# outer iterations j=%d, legal=%v\n", res.OuterIterations, res.Legal)
}

// Fig6 regenerates Figure 6: standard cells and fillers before/after
// cGP with fixed macros.
func Fig6(scale float64, opt RunOptions, out io.Writer) {
	d := synth.Generate(mmsAdaptec1(scale))
	tr := &core.Trace{}
	gp := opt.gp()
	gp.Telemetry = telemetry.New(tr)
	if _, err := core.Place(d, core.FlowOptions{GP: gp, SkipLegalization: true}); err != nil {
		fmt.Fprintf(out, "# flow failed: %v\n", err)
		return
	}
	cgp := tr.Stage("cGP")
	fmt.Fprintf(out, "# Figure 6: cGP on MMS-like ADAPTEC1 (fixed macros)\n")
	fmt.Fprintf(out, "phase,iter,W,tau\n")
	if len(cgp) > 0 {
		first, last := cgp[0], cgp[len(cgp)-1]
		fmt.Fprintf(out, "before,%d,%.6g,%.4f\n", first.Iteration, first.HPWL, first.Overflow)
		fmt.Fprintf(out, "after,%d,%.6g,%.4f\n", last.Iteration, last.HPWL, last.Overflow)
	}
}

// Fig7 regenerates Figure 7: the runtime breakdown averaged over the
// MMS-like suite: stage shares of the total, and within mGP the
// density/wirelength/other gradient split (paper: 57%/29%/14%).
func Fig7(scale float64, opt RunOptions, circuits int, out io.Writer) {
	suite := synth.MMSSuite(scale)
	if circuits > 0 && circuits < len(suite) {
		suite = suite[:circuits]
	}
	stageTotals := map[string]float64{}
	var stageOrder []string
	var density, wl, other, mgpTotal float64
	total := 0.0
	for _, spec := range suite {
		d := synth.Generate(spec)
		gp := opt.gp()
		res, err := core.Place(d, core.FlowOptions{GP: gp})
		if err != nil {
			fmt.Fprintf(out, "# %s failed: %v\n", spec.Name, err)
			continue
		}
		for _, stage := range res.Stages {
			if _, seen := stageTotals[stage.Name]; !seen {
				stageOrder = append(stageOrder, stage.Name)
			}
			stageTotals[stage.Name] += stage.Time.Seconds()
			total += stage.Time.Seconds()
		}
		density += res.MGP.DensityTime.Seconds()
		wl += res.MGP.WirelengthTime.Seconds()
		other += res.MGP.OtherTime.Seconds()
		mgpTotal += res.MGP.Total.Seconds()
	}
	fmt.Fprintf(out, "# Figure 7: runtime breakdown, average of MMS-like suite (%d circuits)\n", len(suite))
	fmt.Fprintf(out, "stage,share%%\n")
	for _, stage := range stageOrder {
		fmt.Fprintf(out, "%s,%.1f\n", stage, 100*stageTotals[stage]/total)
	}
	fmt.Fprintf(out, "# within mGP (paper: density 57%%, wirelength 29%%, other 14%%):\n")
	fmt.Fprintf(out, "mGP-part,share%%\n")
	fmt.Fprintf(out, "density-gradient,%.1f\n", 100*density/mgpTotal)
	fmt.Fprintf(out, "wirelength-gradient,%.1f\n", 100*wl/mgpTotal)
	fmt.Fprintf(out, "other,%.1f\n", 100*other/mgpTotal)
}

func writePositionsCSV(d *netlist.Design, path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "name,kind,x,y,w,h\n")
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(f, "%s,%s,%.4f,%.4f,%.4f,%.4f\n", c.Name, c.Kind, c.X, c.Y, c.W, c.H)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
