package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"eplace/internal/core"
	"eplace/internal/eco"
	"eplace/internal/netlist"
	"eplace/internal/poisson"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// workload is one set of inputs. Every run places the same fixed number
// of distinct designs, generated from sub-seeds of the run's seed: the
// quality metrics are means over that set, so they depend on the seed
// alone and not on how many repetitions fit into the run.
type workload struct {
	name string
	spec synth.Spec
	// levels > 1 places with the multilevel V-cycle.
	levels int
	// eco places the design once during set-up and measures the five
	// incremental edits of ecoScripts instead of a cold flow.
	eco bool
	// designs is the size of the design set of one run, chosen so that
	// one turn for each (at 1 worker and at N) takes a little less than
	// the run length of BENCHMARK.json on a 2-core machine.
	designs int
}

// The sizes are a quarter to a fifth of the circuits ISSUE 11 proposed:
// 92 driver runs have to fit into 57 minutes, so one run has about 25 s
// for set-up, several designs and both worker counts.
var workloads = []workload{
	{
		name:    "flat_std_5k",
		spec:    synth.Spec{NumCells: 5000, NumFixedMacros: 12, TargetDensity: 1.0},
		designs: 5,
	},
	{
		// Four levels, not five: at 20 000 cells a fifth level exists for
		// about half the seeds, which makes the run time bimodal.
		name:    "ml_std_20k",
		spec:    synth.Spec{NumCells: 20000},
		levels:  4,
		designs: 4,
	},
	{
		name:    "mixed_mms_4k",
		spec:    synth.Spec{NumCells: 4000, NumMovableMacros: 16, TargetDensity: 0.8, Utilization: 0.5},
		designs: 5,
	},
	{
		name:    "eco_warm_5k",
		spec:    synth.Spec{NumCells: 5000, TargetDensity: 0.8},
		eco:     true,
		designs: 2,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled shrinks the workload for the smoke test: cell counts scale,
// macro counts scale with a floor of four, and one design is placed.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	w.spec.NumCells = int(math.Round(float64(w.spec.NumCells) * scale))
	for _, n := range []*int{&w.spec.NumFixedMacros, &w.spec.NumMovableMacros} {
		if *n > 0 {
			*n = max(4, int(math.Round(float64(*n)*scale)))
		}
	}
	w.designs = 1
	return w
}

// instance is one design of a run's set, ready to place.
type instance struct {
	// design is never placed itself: every operation works on a clone.
	// For the ECO workload it holds the converged base placement.
	design *netlist.Design
	// macros are the movable macros, listed before any flow pins them.
	macros []int
	// scripts are the ECO edits, each applied to its own clone.
	scripts []ecoEdit
}

// prepare builds instance j of a run. The seed reaches the program
// under test only through the generated design and the edit scripts.
func (w *workload) prepare(seed int64, j, workers int) (*instance, time.Duration, error) {
	spec := w.spec
	spec.Name = fmt.Sprintf("%s-%d-%d", w.name, seed, j)
	spec.Seed = seed*100 + int64(j) + 1
	t0 := time.Now()
	d := synth.Generate(spec)
	gen := time.Since(t0)
	if err := d.Validate(); err != nil {
		return nil, gen, fmt.Errorf("generated design invalid: %w", err)
	}
	inst := &instance{design: d, macros: d.MovableOf(netlist.Macro)}
	if !w.eco {
		return inst, gen, nil
	}
	res, err := core.Place(d, w.flowOptions(workers, nil))
	if err != nil {
		return nil, gen, fmt.Errorf("base placement: %w", err)
	}
	if err := verifyLayout(d, inst.macros, res.HPWL); err != nil {
		return nil, gen, fmt.Errorf("base placement: %w", err)
	}
	inst.scripts = ecoScripts(d, rand.New(rand.NewSource(spec.Seed)))
	return inst, gen, nil
}

func gpOptions(workers int, rec *telemetry.Recorder) core.Options {
	return core.Options{Workers: workers, Poisson: poisson.KindSpectral32, Telemetry: rec}
}

func (w *workload) flowOptions(workers int, rec *telemetry.Recorder) core.FlowOptions {
	return core.FlowOptions{GP: gpOptions(workers, rec), Levels: w.levels}
}

// ecoEdit is one named edit script.
type ecoEdit struct {
	name   string
	script *eco.Script
}

// ecoScripts rebuilds the edit suite of experiments.ecoCases, which is
// unexported: insertions of 0.1%, 1% and 5% of the cell count, a
// reweight of 20 nets and a blockage over 4% of the region.
func ecoScripts(d *netlist.Design, rng *rand.Rand) []ecoEdit {
	std := d.MovableOf(netlist.StdCell)
	frac := func(f float64) int { return max(1, int(float64(len(std))*f)) }
	reweight := &eco.Script{}
	for i := 0; i < 20; i++ {
		reweight.ReweightNets = append(reweight.ReweightNets,
			eco.Reweight{NetID: rng.Intn(len(d.Nets)), Weight: 4})
	}
	r := d.Region
	lx, ly := r.Lx+0.15*r.W(), r.Ly+0.55*r.H()
	block := &eco.Script{BlockRegions: []eco.Block{{Lx: lx, Ly: ly, Hx: lx + 0.2*r.W(), Hy: ly + 0.2*r.H()}}}
	return []ecoEdit{
		{"ins0.1", insertScript(d, std, rng, frac(0.001))},
		{"ins1", insertScript(d, std, rng, frac(0.01))},
		{"ins5", insertScript(d, std, rng, frac(0.05))},
		{"reweight", reweight},
		{"block", block},
	}
}

// insertScript adds n cells of average size, each spliced into two nets
// of a random existing cell, as a buffer or gate insertion would be.
func insertScript(d *netlist.Design, std []int, rng *rand.Rand, n int) *eco.Script {
	var aw, ah float64
	for _, ci := range std {
		aw += d.Cells[ci].W
		ah += d.Cells[ci].H
	}
	aw, ah = aw/float64(len(std)), ah/float64(len(std))
	s := &eco.Script{}
	for i := 0; i < n; i++ {
		anchor := &d.Cells[std[rng.Intn(len(std))]]
		var nets []int
		for _, pi := range anchor.Pins {
			if ni := d.Pins[pi].Net; len(nets) == 0 || nets[0] != ni {
				nets = append(nets, ni)
			}
			if len(nets) == 2 {
				break
			}
		}
		for len(nets) < 2 {
			nets = append(nets, rng.Intn(len(d.Nets)))
		}
		s.AddCells = append(s.AddCells, eco.AddCell{
			Name: fmt.Sprintf("eco_ins_%d", i), W: aw, H: ah, NetIDs: nets,
		})
	}
	return s
}

// placed is what one placement call left behind, in the form the
// verifier and the per-layer accounting need.
type placed struct {
	name     string // "" for a cold flow, the edit name for ECO
	design   *netlist.Design
	hpwl     float64 // as reported by the program
	digest   string
	stages   []core.StageSpan
	flow     *core.FlowResult
	eco      *core.ECOResult
	prepare  callCost // eco.Prepare, ECO only
	place    callCost
	frozen   []int     // ECO only
	frozenXY []float64 // positions of frozen before PlaceECO
	// err is the error of the call that failed, which makes the
	// operation a failed one; the other fields are then incomplete.
	err error
}

// placeOnce runs the placement calls of one repetition on instance
// inst: one core.Place, or eco.Prepare + core.PlaceECO per edit. Each
// call gets a fresh clone, made outside the timed region.
func (w *workload) placeOnce(inst *instance, workers int, rec *telemetry.Recorder) []placed {
	if !w.eco {
		p := placed{design: inst.design.Clone()}
		var res core.FlowResult
		p.place = measureCall(func() { res, p.err = core.Place(p.design, w.flowOptions(workers, rec)) })
		p.flow, p.hpwl, p.stages, p.digest = &res, res.HPWL, res.Stages, finalDigest(res.Digests)
		return []placed{p}
	}
	var out []placed
	for _, e := range inst.scripts {
		p := placed{name: e.name, design: inst.design.Clone()}
		var prep *eco.Prepared
		p.prepare = measureCall(func() { prep, p.err = eco.Prepare(p.design, e.script, eco.PlanOptions{}) })
		if p.err != nil {
			p.err = fmt.Errorf("eco.Prepare: %w", p.err)
			out = append(out, p)
			continue
		}
		p.frozen = prep.Plan.Frozen
		p.frozenXY = p.design.Positions(p.frozen)
		var res core.ECOResult
		p.place = measureCall(func() {
			res, p.err = core.PlaceECO(context.Background(), p.design, prep.Plan, core.ECOOptions{GP: gpOptions(workers, rec)})
		})
		p.eco, p.hpwl, p.stages, p.digest = &res, res.HPWL, res.Stages, finalDigest(res.Digests)
		out = append(out, p)
	}
	return out
}

func finalDigest(ds []telemetry.StageDigest) string {
	if len(ds) == 0 {
		return ""
	}
	return ds[len(ds)-1].Hex()
}
