package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/eco"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// poisoner overwrites the Cell struct position of every movable cell of
// a design with NaN as the first GP stage on that design starts, and at
// every later GP stage's start fails the test unless the structs still
// hold the NaN: from Compile to the flow's return the compiled view holds
// the positions, so nothing a stage reads may come from the structs, and
// no stage may write them.
type poisoner struct {
	t *testing.T
	// cells lists, per design, the cells poisoned; checked counts the
	// stages that found them poisoned.
	cells   map[*netlist.Design][]int
	checked int
}

func newPoisoner(t *testing.T) *poisoner {
	return &poisoner{t: t, cells: map[*netlist.Design][]int{}}
}

func (p *poisoner) hook(s gpStage, done bool) {
	if done {
		return
	}
	d := s.cv.Design()
	cells, seen := p.cells[d]
	if !seen {
		for i := range d.Cells {
			if c := &d.Cells[i]; !c.Fixed {
				c.X, c.Y = math.NaN(), math.NaN()
				cells = append(cells, i)
			}
		}
		p.cells[d] = cells
		return
	}
	for _, ci := range cells {
		if c := &d.Cells[ci]; !math.IsNaN(c.X) || !math.IsNaN(c.Y) {
			p.t.Errorf("%s starts with cell %d's struct at (%v, %v), written after the first GP stage", s.name, ci, c.X, c.Y)
			return
		}
	}
	p.checked++
}

// placedRun is what a run leaves: its digests and the caller's
// positions.
type placedRun struct {
	digests []telemetry.StageDigest
	x, y    []float64
}

func placedOf(d *netlist.Design, digests []telemetry.StageDigest) placedRun {
	r := placedRun{digests: digests}
	for i := range d.Cells {
		r.x, r.y = append(r.x, d.Cells[i].X), append(r.y, d.Cells[i].Y)
	}
	return r
}

// sameRun reports where two runs part: digests, then positions bit for
// bit.
func sameRun(t *testing.T, name string, got, want placedRun) {
	t.Helper()
	if ok, why := telemetry.DigestsEqual(want.digests, got.digests); !ok {
		t.Errorf("%s: digests differ from the unpoisoned run's: %s", name, why)
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	if !slices.Equal(bits(got.x), bits(want.x)) || !slices.Equal(bits(got.y), bits(want.y)) {
		t.Errorf("%s: positions differ from the unpoisoned run's", name)
	}
}

// TestFlowViewIsTheTruth: a run whose Cell struct positions of every
// movable cell are NaN from its first GP stage on ends with the
// unpoisoned run's digests and positions, flat, as a 4-level V-cycle,
// mixed-size, as an ECO block edit (its eGP stage) and resumed from a
// mid-mGP snapshot. A stage that read positions from the structs
// instead of the view would place NaN; the mixed-size runs also check
// that no stage, mLG included, wrote the structs before cGP-filler and
// cGP start.
func TestFlowViewIsTheTruth(t *testing.T) {
	flows := []struct {
		name string
		spec synth.Spec
		opt  FlowOptions
	}{
		{"flat", detSpecs()[0], detFlowOpts(2)},
		{"levels4", synth.Spec{Name: "truth-ml", NumCells: 5000, NumFixedMacros: 4},
			FlowOptions{GP: Options{Workers: 2}, Levels: 4}},
		{"mixed", detSpecs()[2], detFlowOpts(2)},
	}
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			run := func(hook func(gpStage, bool)) placedRun {
				d := synth.Generate(f.spec)
				opt := f.opt
				opt.gpHook = hook
				res, err := Place(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				if f.opt.Levels > 1 && len(res.ML) != f.opt.Levels-1 {
					t.Fatalf("%d coarse levels, want %d", len(res.ML), f.opt.Levels-1)
				}
				return placedOf(d, res.Digests)
			}
			p := newPoisoner(t)
			sameRun(t, f.name, run(p.hook), run(nil))
			if f.spec.NumMovableMacros > 0 && p.checked < 2 {
				t.Errorf("%d later GP stages checked the structs, want cGP-filler and cGP", p.checked)
			}
		})
	}

	t.Run("resume", func(t *testing.T) {
		var snaps snapshots
		ref := detFlowOpts(2)
		ref.GP.CheckpointEvery = 20
		ref.Checkpoint = &snaps
		d := synth.Generate(detSpecs()[2])
		res, err := Place(d, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := placedOf(d, res.Digests)
		var mid *checkpoint.State
		for _, st := range snaps {
			if st.Phase == checkpoint.PhaseMGP {
				mid = st
			}
		}
		if mid == nil {
			t.Fatal("no mid-mGP snapshot")
		}
		opt := detFlowOpts(2)
		p := newPoisoner(t)
		opt.Resume, opt.gpHook = mid, p.hook
		d = synth.Generate(detSpecs()[2])
		if res, err = Place(d, opt); err != nil {
			t.Fatal(err)
		}
		sameRun(t, "resume", placedOf(d, res.Digests), want)
		if p.checked < 2 {
			t.Errorf("%d later GP stages checked the structs, want cGP-filler and cGP", p.checked)
		}
	})

	t.Run("eco", func(t *testing.T) {
		spec := synth.Spec{Name: "truth-eco", NumCells: 1500, Seed: 6}
		cold := synth.Generate(spec)
		if _, err := Place(cold, FlowOptions{GP: Options{Workers: 2}}); err != nil {
			t.Fatal(err)
		}
		run := func(hook func(gpStage, bool)) placedRun {
			warm := warmCopy(spec, cold)
			prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(prep.Plan.Evicted) == 0 {
				t.Fatalf("the block evicted nothing: %s", prep.Plan)
			}
			res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Workers: 2}, gpHook: hook})
			if err != nil {
				t.Fatal(err)
			}
			if res.GP.Stop == "" {
				t.Fatal("eGP did not run")
			}
			return placedOf(warm, res.Digests)
		}
		sameRun(t, "eco", run(newPoisoner(t).hook), run(nil))
	})
}
