package experiments

import (
	"math"
	"testing"

	"eplace/internal/poisson"
	"eplace/internal/synth"
)

// TestBackendQualityParity is the full-flow quality guard for the
// float32 Poisson backend: the flat flow over the suite at scale
// 0.2 must end equally legal under it on every circuit, with suite
// geomean HPWL within 0.5% of the float64 spectral reference. The
// cheaper backend perturbs every gradient in the low-order bits (that
// is the point), which nudges individual circuits into slightly
// different local minima — the suite geomean is the quality metric
// that must not drift. The geomean of one draw of the eight circuits
// scatters by about 0.6% from draw to draw (EXPERIMENTS.md, Poisson
// backends), more than the limit, so it is taken over four draws of
// the suite: the name-seeded one and generator seeds 1 to 3.
func TestBackendQualityParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full placements")
	}
	kinds := []string{poisson.KindSpectral32}
	logSum := make([]float64, len(kinds))
	samples := 0
	for seed := int64(0); seed <= 3; seed++ {
		for _, spec := range synth.ISPD05Suite(0.2) {
			spec.Seed = seed
			run := func(kind string) (bool, float64) {
				rep := RunSpec(spec, EPlace, RunOptions{MaxIters: 1000, Poisson: kind})
				if rep.Failed {
					t.Fatalf("%s on %s seed %d: flow failed", kind, spec.Name, seed)
				}
				return rep.Legal, rep.HPWL
			}
			refLegal, refHPWL := run(poisson.KindSpectral)
			for k, kind := range kinds {
				legal, hpwl := run(kind)
				if legal != refLegal {
					t.Errorf("%s on %s seed %d: legal=%v, spectral reference legal=%v",
						kind, spec.Name, seed, legal, refLegal)
				}
				logSum[k] += math.Log(hpwl / refHPWL)
			}
			samples++
		}
	}
	for k, kind := range kinds {
		geo := math.Exp(logSum[k]/float64(samples)) - 1
		t.Logf("%s: suite geomean HPWL deviation %+.3f%% over %d placements", kind, 100*geo, samples)
		if math.Abs(geo) > 0.005 {
			t.Errorf("%s: suite geomean HPWL deviates %+.3f%% from spectral (limit 0.5%%)",
				kind, 100*geo)
		}
	}
}
