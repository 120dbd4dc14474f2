package core

import (
	"fmt"
	"math"
	"testing"

	"eplace/internal/nesterov"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// TestNesterovIterationAllocFree pins the tentpole allocation contract:
// one full Nesterov iteration of the global-placement loop — the
// momentum step with its gradient evaluation (fused wirelength kernel,
// density rasterize/solve/force), the once-per-iteration position
// scatter into the compiled view, the exact HPWL, the overflow check
// and the schedule's observation — allocates nothing once the scratch
// buffers are warm, inline at Workers=1 and on parallel.For's
// persistent team at Workers=2.
func TestNesterovIterationAllocFree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nesterovIterationAllocs(t, workers)
		})
	}
}

func nesterovIterationAllocs(t *testing.T, workers int) {
	d := synth.Generate(synth.Spec{Name: "alloc-iter", NumCells: 400, NumMovableMacros: 2})
	idx := d.Movable()
	opt := Options{GridM: 32, Workers: workers}
	opt.defaults()
	rec := telemetry.New()
	rec.SetStage("mGP")
	e := mustEngine(t, d, idx, opt, rec)
	e.stage = "mGP"

	// The stage's schedule, with minIters past the run so that observe
	// never stops it.
	e.sch.stallIters, e.sch.minIters, e.sch.targetOverflow = stallIters, math.MaxInt, opt.TargetOverflow
	v0 := d.Positions(idx)
	e.start(v0, 0, 0)
	e.sch.divergeHPWL = divergeHPWL(e.sch.HPWL0, e.cv.NetW, d.Region)

	o := &nesterov.Optimizer{}
	o.Start(v0, e.gradFn, e.clampFn, 0.1)
	o.Workers = workers
	iter := 0
	var stop string
	iteration := func() {
		o.Step(false)
		e.cv.SetPositions(e.idx, o.U)
		e.sch.BestTau = math.Inf(1) // every observation takes the best-snapshot copy
		if s := e.sch.observe(iter, o.U, e.hpwl(), e.dm.Overflow(d.TargetDensity)); s != "" {
			stop = s
		}
		iter++
	}
	for i := 0; i < 3; i++ {
		iteration() // warm telemetry maps and per-worker scratch
	}
	if n := testing.AllocsPerRun(20, iteration); n != 0 {
		t.Errorf("one Nesterov iteration allocates %v times per run at %d workers, want 0", n, workers)
	}
	if stop != "" {
		t.Errorf("the schedule stopped the run (%s)", stop)
	}
}
