package experiments

import (
	"math"
	"testing"

	"eplace/internal/poisson"
	"eplace/internal/synth"
)

// TestBackendQualityParity is the full-flow quality guard for the
// Poisson backends: the multilevel flow over the suite at scale 0.2
// must end equally legal under every backend on every circuit, with
// suite geomean HPWL close to the float64 spectral reference. The
// cheaper backends perturb every gradient in the low-order bits (that
// is the point), which nudges individual circuits into slightly
// different local minima — the suite geomean is the quality metric
// that must not drift. Its limit is three times the scatter the eight
// circuits give it: single circuits sit within 1.5% of the reference
// under spectral32 and within 4% under multigrid (an independent
// discretization), whichever seed mIP hands the flow, so their geomean
// scatters by about 0.3% and 0.7%.
func TestBackendQualityParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full placements")
	}
	specs := synth.ISPD05Suite(0.2)
	run := func(spec synth.Spec, kind string) (bool, float64) {
		rep := RunSpec(spec, EPlace, RunOptions{
			MaxIters: 1000, Levels: 3, Poisson: kind,
		})
		if rep.Failed {
			t.Fatalf("%s on %s: flow failed", kind, spec.Name)
		}
		return rep.Legal, rep.HPWL
	}
	limits := map[string]float64{poisson.KindSpectral32: 0.01, poisson.KindMultigrid: 0.02}
	for _, kind := range []string{poisson.KindSpectral32, poisson.KindMultigrid} {
		logSum := 0.0
		for _, spec := range specs {
			refLegal, refHPWL := run(spec, poisson.KindSpectral)
			legal, hpwl := run(spec, kind)
			if legal != refLegal {
				t.Errorf("%s on %s: legal=%v, spectral reference legal=%v",
					kind, spec.Name, legal, refLegal)
			}
			logSum += math.Log(hpwl / refHPWL)
		}
		geo := math.Exp(logSum/float64(len(specs))) - 1
		t.Logf("%s: suite geomean HPWL deviation %+.3f%%", kind, 100*geo)
		if math.Abs(geo) > limits[kind] {
			t.Errorf("%s: suite geomean HPWL deviates %+.3f%% from spectral (limit %g%%)",
				kind, 100*geo, 100*limits[kind])
		}
	}
}
