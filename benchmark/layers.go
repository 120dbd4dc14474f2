package main

import (
	"runtime"
	"strings"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/cluster"
	"eplace/internal/density"
	"eplace/internal/detail"
	"eplace/internal/fft"
	"eplace/internal/grid"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/telemetry"
	"eplace/internal/wirelength"
)

// layerValues turns one traced repetition into per-layer numbers: the
// stage times the flow reported, the kernel totals and counters of the
// recorder it was handed, and the result structs. It folds the same
// numbers into the trace as children of the place span.
func layerValues(ps []placed, rec *telemetry.Recorder, tr *tracer, place *span) map[string]float64 {
	v := map[string]float64{}
	var total callCost
	var active, cells, dpBefore, dpAfter float64
	for _, p := range ps {
		total.add(p.prepare)
		total.add(p.place)
		prefix := ""
		if p.name != "" {
			prefix = p.name + "/"
			tr.fold(place, prefix+"eco.Prepare", p.prepare.wall, 1)
			v["eco.prepare_s"] += p.prepare.wall
		}
		for _, st := range p.stages {
			tr.fold(place, "stage:"+prefix+st.Name, st.Time.Seconds(), 1)
			v[stageKey(st.Name)] += st.Time.Seconds()
		}
		if f := p.flow; f != nil {
			v["nesterov.iters"] += float64(f.MGP.Iterations + f.CGP.Iterations)
			v["nesterov.backtracks"] += float64(f.MGP.Backtracks + f.CGP.Backtracks)
			for _, l := range f.ML {
				v["nesterov.iters"] += float64(l.Result.Iterations)
				v["nesterov.backtracks"] += float64(l.Result.Backtracks)
			}
			if f.MLG.Moves > 0 {
				v["legalize.mlg_accept_frac"] = float64(f.MLG.Accepted) / float64(f.MLG.Moves)
			}
			v["detail.passes"] += float64(f.DP.Passes)
			dpBefore += f.DP.HPWLBefore
			dpAfter += f.DP.HPWLAfter
		}
		if e := p.eco; e != nil {
			v["nesterov.iters"] += float64(e.GP.Iterations)
			v["nesterov.backtracks"] += float64(e.GP.Backtracks)
			v["detail.passes"] += float64(e.DP.Passes)
			dpBefore += e.DP.HPWLBefore
			dpAfter += e.DP.HPWLAfter
			active += float64(e.ActiveCells)
			cells += float64(e.ActiveCells + e.FrozenCells)
			v["eco.legalize_max_disp"] = max(v["eco.legalize_max_disp"], e.LegalizeMaxDisp)
		}
	}

	// Kernel totals, summed over every stage that recorded them. The
	// engine's density span contains its Poisson solve, so the solve is
	// taken out to leave density's own time: rasterize and field gather.
	var legalizeSpan float64
	for _, st := range rec.SpanTotals() {
		if st.Kernel == "" {
			continue // stage spans come from the result's Stages above
		}
		tr.fold(place, "kernel:"+st.Stage+"/"+st.Kernel, st.Seconds, st.Count)
		switch {
		case st.Kernel == "density":
			v["density.span_s"] += st.Seconds
		case strings.HasPrefix(st.Kernel, "poisson/"):
			v["poisson.span_s"] += st.Seconds
		case st.Kernel == "wirelength":
			v["wirelength.span_s"] += st.Seconds
		case st.Stage == "cDP" && st.Kernel == "legalize":
			legalizeSpan += st.Seconds
		case st.Stage == "cDP" && st.Kernel != "detail":
			v["detail."+st.Kernel+"_s"] += st.Seconds
			v["detail.span_s"] += st.Seconds
		}
	}
	v["density.span_s"] -= v["poisson.span_s"]
	if place != nil {
		place.Counters = map[string]int64{}
		for _, c := range rec.Counters() {
			place.Counters[c.Name] = c.Value
		}
	}

	wall := total.wall
	v["core.place_traced_s"] = wall
	gp := v["core.mgp_s"] + v["core.mgp_coarse_s"] + v["core.cgp_s"] + v["core.egp_s"]
	staged := 0.0
	for _, k := range []string{"mip", "mgp", "mgp_coarse", "mlg", "cgp", "egp", "cdp"} {
		v["core."+k+"_frac"] = v["core."+k+"_s"] / wall
		staged += v["core."+k+"_s"]
	}
	// Whatever no stage claims: clustering, compile, fillers, digests,
	// and for ECO the eco.Prepare call, which eco.prepare_frac singles out.
	v["core.other_frac"] = (wall - staged) / wall
	v["eco.prepare_frac"] = v["eco.prepare_s"] / wall
	if gp > 0 {
		v["core.mgp_unattributed_frac"] = 1 - (v["density.span_s"]+v["poisson.span_s"]+v["wirelength.span_s"])/gp
		if it := v["nesterov.iters"]; it > 0 {
			v["nesterov.iter_ms"] = 1e3 * gp / it
		}
	}
	// The cold flow times row legalization itself; the ECO flow does not,
	// so there it is the cDP stage less the detail passes, which adds the
	// snap-back of unedited cells that ECO does before legalizing.
	v["legalize.cells_s"] = legalizeSpan
	if legalizeSpan == 0 {
		v["legalize.cells_s"] = v["core.cdp_s"] - v["detail.span_s"]
	}
	if dpBefore > 0 {
		v["detail.hpwl_gain_frac"] = (dpBefore - dpAfter) / dpBefore
	}
	if cells > 0 {
		v["eco.active_frac"] = active / cells
	}
	v["process.gc_cycles"] = float64(total.gcCycles)
	v["process.mallocs"] = float64(total.mallocs)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["process.heap_live_mb"] = float64(ms.HeapAlloc) / mb
	return v
}

// stageKey maps a flow stage name to the per-layer bucket its time
// goes to. A stage this table does not know ends up in core.other_frac.
func stageKey(name string) string {
	switch {
	case name == "mIP":
		return "core.mip_s"
	case name == "mGP":
		return "core.mgp_s"
	case strings.HasPrefix(name, "mGP/L"):
		return "core.mgp_coarse_s"
	case name == "mLG":
		return "core.mlg_s"
	case name == "cGP":
		return "core.cgp_s"
	case name == "eGP":
		return "core.egp_s"
	case name == "cDP":
		return "core.cdp_s"
	}
	return "core.unknown_stage_s"
}

// probe times f: one warm-up call, then at least five calls and at
// least 200 ms, and returns the median seconds per call. calls > 0
// caps the protocol at that many calls without warm-up (smoke test).
func probe(calls int, f func()) float64 {
	if calls == 0 {
		f()
	}
	var samples []float64
	var total time.Duration
	for (calls == 0 && (len(samples) < 5 || total < 200*time.Millisecond)) || len(samples) < calls {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		samples = append(samples, d.Seconds())
	}
	return median(samples)
}

// runProbes times single calls into the layers on the final layout of
// the first traced repetition. They are not part of any placement: they
// show a kernel's cost at this workload's size, at 1 and at N workers.
func runProbes(cfg runConfig, inst *instance, final *netlist.Design, m map[string]summary, tr *tracer, parent *span) {
	n := cfg.workersN
	timed := func(name string, scale float64, f func()) {
		sp := tr.begin(parent, "probe:"+name)
		m[name] = one(scale * probe(cfg.probeCalls, f))
		tr.end(sp)
	}
	const ms, us = 1e3, 1e6

	// The gradient kernels are probed over everything the flow moved. It
	// pins macros once they are legal; a copy has them movable again.
	kd := final.Clone()
	for _, mi := range inst.macros {
		kd.Cells[mi].Fixed = false
	}
	var cv *netlist.Compiled
	timed("netlist.compile_ms", ms, func() { cv = kd.Compile() })
	timed("netlist.hpwl_ms", ms, func() { cv.HPWL() })
	m["netlist.pins"] = one(float64(len(kd.Pins)))

	idx := kd.Movable()
	gm := grid.ChooseM(len(idx))
	m["grid.m"] = one(float64(gm))
	g := grid.New(kd.Region, gm)
	timed("grid.raster_ms", ms, func() {
		g.ClearMovable()
		g.AddCellsSoA(idx, cv.PosX, cv.PosY, cv.CellW, cv.CellH, cv.Filler, 1)
	})
	rho := make([]float64, gm*gm)
	g.Charge(rho)

	grad := make([]float64, 2*len(idx))
	for _, k := range []struct {
		workers int
		suffix  string
	}{{1, "_ms"}, {n, "_par_ms"}} {
		// gm is a power of two and the backend name a constant, so the
		// constructors cannot fail here.
		dm, err := density.NewModelCompiled(cv, gm, k.workers, poisson.KindSpectral32)
		if err != nil {
			panic(err)
		}
		timed("density.grad"+k.suffix, ms, func() {
			dm.Refresh(idx)
			dm.Gradient(idx, grad)
		})
		solver, err := poisson.NewBackend(poisson.KindSpectral32, gm, k.workers)
		if err != nil {
			panic(err)
		}
		timed("poisson.solve"+k.suffix, ms, func() { solver.Solve(rho) })
		// The smoothing of a converged placement: gamma at tau = 0.1.
		wl := wirelength.NewCompiled(cv, idx, 0.8*min(g.BinW, g.BinH))
		wl.Workers = k.workers
		timed("wirelength.grad"+k.suffix, ms, func() { wl.CostAndGradient(grad) })
	}

	r := fft.NewReal(gm)
	x, out := rho[:gm], make([]float64, gm)
	timed("fft.dct2_us", us, func() { r.DCT2(x, out) })

	// Clustering reads structure only, so the pristine design serves. A
	// flat workload is probed at the depth the multilevel one uses.
	levels := max(cfg.wl.levels, 4)
	var h *cluster.Hierarchy
	timed("cluster.build_ms", ms, func() { h = cluster.Build(inst.design, levels, cluster.Options{}) })
	m["cluster.levels"] = one(float64(h.Depth()))
	m["cluster.coarsest_cells"] = one(float64(len(h.Designs[h.Depth()-1].Movable())))

	std := final.MovableOf(netlist.StdCell)
	pos := final.Positions(std)
	timed("detail.pass_ms", ms, func() {
		final.SetPositions(std, pos)
		if _, err := detail.Place(final, std, detail.Options{Passes: 1, Workers: 1}); err != nil {
			panic(err) // only fails on a design without rows, which verifyLayout rejected
		}
	})
	final.SetPositions(std, pos)

	st := &checkpoint.State{Phase: checkpoint.PhaseDone, DesignName: final.Name, Fingerprint: checkpoint.Fingerprint(final)}
	st.CapturePositions(final, 0)
	var blob []byte
	timed("checkpoint.encode_ms", ms, func() {
		var err error
		if blob, err = checkpoint.Encode(st); err != nil {
			panic(err)
		}
	})
	timed("checkpoint.decode_ms", ms, func() {
		if _, err := checkpoint.Decode(blob); err != nil {
			panic(err)
		}
	})
	m["checkpoint.bytes"] = one(float64(len(blob)))
}
