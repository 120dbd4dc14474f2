package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"eplace/internal/core"
	"eplace/internal/eco"
	"eplace/internal/netlist"
	"eplace/internal/synth"
)

// ECOStudyOptions sizes the incremental-vs-cold study.
type ECOStudyOptions struct {
	// Cells is the base circuit size (default 4000).
	Cells int
	// GridM and Workers forward to the placers.
	GridM   int
	Workers int
	// Log receives per-case progress lines.
	Log io.Writer
}

func (o *ECOStudyOptions) defaults() {
	if o.Cells <= 0 {
		o.Cells = 4000
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
}

// ecoCase is one synthetic edit: the script builder sees the base
// design so it can address real nets and the region.
type ecoCase struct {
	name  string
	build func(d *netlist.Design, rng *rand.Rand) *eco.Script
}

// insertScript adds n new standard cells sized like the average
// existing cell. Each insertion is anchored at a random existing cell
// and wired into two of that cell's nets, modeling the local splice of
// a buffer or gate insertion — real ECO edits attach at a spot, they
// do not span the die.
func insertScript(d *netlist.Design, rng *rand.Rand, n int) *eco.Script {
	var aw, ah float64
	cnt := 0
	var movable []int
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && c.Kind == netlist.StdCell {
			aw += c.W
			ah += c.H
			cnt++
			movable = append(movable, i)
		}
	}
	aw, ah = aw/float64(cnt), ah/float64(cnt)
	s := &eco.Script{}
	for i := 0; i < n; i++ {
		anchor := &d.Cells[movable[rng.Intn(len(movable))]]
		var nets []int
		for _, pi := range anchor.Pins {
			ni := d.Pins[pi].Net
			if len(nets) == 0 || nets[0] != ni {
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
			Name:   fmt.Sprintf("eco_ins_%d", i),
			W:      aw,
			H:      ah,
			NetIDs: nets,
		})
	}
	return s
}

// ecoCases builds the committed suite: insertions at 0.1/1/5% of the
// cell count, a net-reweight pass, and a region blockage.
func ecoCases(cells int) []ecoCase {
	frac := func(f float64) int {
		n := int(float64(cells) * f)
		if n < 1 {
			n = 1
		}
		return n
	}
	return []ecoCase{
		{"ins0.1", func(d *netlist.Design, rng *rand.Rand) *eco.Script {
			return insertScript(d, rng, frac(0.001))
		}},
		{"ins1", func(d *netlist.Design, rng *rand.Rand) *eco.Script {
			return insertScript(d, rng, frac(0.01))
		}},
		{"ins5", func(d *netlist.Design, rng *rand.Rand) *eco.Script {
			return insertScript(d, rng, frac(0.05))
		}},
		{"reweight", func(d *netlist.Design, rng *rand.Rand) *eco.Script {
			s := &eco.Script{}
			for i := 0; i < 20; i++ {
				s.ReweightNets = append(s.ReweightNets, eco.Reweight{
					NetID: rng.Intn(len(d.Nets)), Weight: 4,
				})
			}
			return s
		}},
		{"block", func(d *netlist.Design, rng *rand.Rand) *eco.Script {
			// A blockage covering ~4% of the region, off-center.
			r := d.Region
			w, h := 0.2*r.W(), 0.2*r.H()
			lx := r.Lx + 0.15*r.W()
			ly := r.Ly + 0.55*r.H()
			return &eco.Script{BlockRegions: []eco.Block{{Lx: lx, Ly: ly, Hx: lx + w, Hy: ly + h}}}
		}},
	}
}

// ECOStudy measures incremental re-placement against a cold re-run on
// the committed edit suite. For each case the edited design is placed
// twice from the same inputs — a full cold flow, and an ECO warm start
// off the base design's converged placement — and one CSV row per case
// is written to out. The headline numbers are the speedup at matched
// quality: for small edits (<=1% of cells) the warm start must be >=3x
// faster within 1% of the cold flow's final HPWL.
func ECOStudy(opt ECOStudyOptions, out io.Writer) error {
	opt.defaults()
	spec := synth.Spec{Name: "eco-base", NumCells: opt.Cells, Seed: 1, TargetDensity: 0.8}
	gp := core.Options{GridM: opt.GridM, Workers: opt.Workers}

	// The shared warm start: one converged placement of the base design.
	base := synth.Generate(spec)
	t0 := time.Now()
	baseRes, err := core.Place(base, core.FlowOptions{GP: gp})
	if err != nil {
		return fmt.Errorf("eco study: base placement: %w", err)
	}
	fmt.Fprintf(opt.Log, "eco study: base %d cells placed in %.2fs (HPWL %.6g)\n",
		opt.Cells, time.Since(t0).Seconds(), baseRes.HPWL)

	fmt.Fprintf(out, "# ECO warm-start vs cold re-place (%d-cell base)\n", opt.Cells)
	fmt.Fprintf(out, "case,cold_s,eco_s,speedup,cold_hpwl,eco_hpwl,delta%%,active,frozen,legal\n")

	for _, cs := range ecoCases(opt.Cells) {
		script := cs.build(base, rand.New(rand.NewSource(7)))

		// Cold: fresh design, apply the edit, full flow.
		cold := synth.Generate(spec)
		if _, err := eco.Apply(cold, script); err != nil {
			return fmt.Errorf("eco study %s: apply (cold): %w", cs.name, err)
		}
		t0 = time.Now()
		coldRes, err := core.Place(cold, core.FlowOptions{GP: gp})
		if err != nil {
			return fmt.Errorf("eco study %s: cold flow: %w", cs.name, err)
		}
		coldSec := time.Since(t0).Seconds()

		// Warm: fresh design, base positions, incremental re-place.
		warm := synth.Generate(spec)
		for i := range warm.Cells {
			warm.Cells[i].X = base.Cells[i].X
			warm.Cells[i].Y = base.Cells[i].Y
		}
		t0 = time.Now()
		prep, err := eco.Prepare(warm, script, eco.PlanOptions{})
		if err != nil {
			return fmt.Errorf("eco study %s: prepare: %w", cs.name, err)
		}
		ecoRes, err := core.PlaceECO(context.Background(), warm, prep.Plan, core.ECOOptions{GP: gp})
		if err != nil {
			return fmt.Errorf("eco study %s: warm flow: %w", cs.name, err)
		}
		ecoSec := time.Since(t0).Seconds()

		speedup := coldSec / ecoSec
		delta := 100 * (ecoRes.HPWL/coldRes.HPWL - 1)
		fmt.Fprintf(out, "%s,%.3f,%.3f,%.1f,%.6g,%.6g,%.2f,%d,%d,%v\n",
			cs.name, coldSec, ecoSec, speedup, coldRes.HPWL, ecoRes.HPWL, delta,
			ecoRes.ActiveCells, ecoRes.FrozenCells, ecoRes.Legal && coldRes.Legal)
		fmt.Fprintf(opt.Log, "eco study: %-8s cold %.2fs eco %.2fs (%.1fx), HPWL delta %+.2f%%\n",
			cs.name, coldSec, ecoSec, speedup, delta)
	}
	return nil
}
