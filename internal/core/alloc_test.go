package core

import (
	"fmt"
	"testing"

	"eplace/internal/nesterov"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// TestNesterovIterationAllocFree pins the tentpole allocation contract:
// one full Nesterov iteration of the global-placement loop — the
// momentum step with its gradient evaluation (fused wirelength kernel,
// density rasterize/solve/force), the once-per-iteration position
// scatter into the compiled view, the exact HPWL and the overflow
// check — allocates nothing once the scratch buffers are warm, inline at
// Workers=1 and on parallel.For's persistent team at Workers=2.
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

	v0 := d.Positions(idx)
	e.clamp(v0)
	e.cv.SetPositions(e.idx, v0)
	e.dm.Refresh(e.idx)
	e.updateGamma(e.dm.Overflow(d.TargetDensity))
	e.initLambda(v0, 0)

	o := nesterov.New(v0, e.gradient, e.clamp, 0.1)
	o.Workers = workers
	var hpwl, tau float64
	iteration := func() {
		o.Step(false)
		e.cv.SetPositions(e.idx, o.U)
		hpwl = e.hpwl()
		tau = e.dm.Overflow(d.TargetDensity)
	}
	for i := 0; i < 3; i++ {
		iteration() // warm telemetry maps and per-worker scratch
	}
	if n := testing.AllocsPerRun(20, iteration); n != 0 {
		t.Errorf("one Nesterov iteration allocates %v times per run at %d workers, want 0", n, workers)
	}
	_, _ = hpwl, tau
}
