package core

import (
	"math"
	"slices"

	"eplace/internal/checkpoint"
	"eplace/internal/geom"
	"eplace/internal/nesterov"
)

// schedule is one GP stage's policy apart from its arithmetic: λ and
// its μ update, γ(τ), the best-τ snapshot and the three stop tests.
// placeGlobal hands it every iteration's observation, and the engine's
// gradient reads λ and γ from it.
type schedule struct {
	// GPState holds what evolves: λ, γ, the HPWL references and the
	// best snapshot. Stage, Iter and Nesterov are set only by snapshot.
	checkpoint.GPState
	binW        float64 // γ's unit, the smaller bin side
	divergeHPWL float64 // see divergeHPWL
	// The stop tests' bounds (see observe).
	stallIters, minIters int
	targetOverflow       float64
}

// refDeltaHPWLFrac is the HPWL-change reference of the lambda schedule,
// as a fraction of the current HPWL (ePlace uses the absolute 3.5e5 on
// ~1e8 ISPD wirelengths).
const refDeltaHPWLFrac = 0.01

// observe takes iteration iter's observation: the layout u the step
// reached, its HPWL and its overflow tau, at or below the best τ moving
// the best snapshot to u. It returns the first stop test that fires
// (diverged, target-overflow, stall), or "" with the next λ and γ set.
func (s *schedule) observe(iter int, u []float64, hpwl, tau float64) (stop string) {
	if tau <= s.BestTau {
		s.BestTau, s.BestTauIter = tau, iter
		copy(s.Best, u)
	}
	if math.IsNaN(hpwl) || hpwl > s.divergeHPWL {
		return StopDiverged
	}
	if iter >= s.minIters {
		if tau <= s.targetOverflow {
			return StopTargetOverflow
		}
		// Stagnation: the target is unreachable (e.g. an infeasible
		// density bound), so stop before lambda grinds wirelength up.
		if iter-s.BestTauIter > s.stallIters {
			return StopStall
		}
	}
	// Penalty schedule: mu = 1.1^{1 - dHPWL/ref} in [0.95, 1.1], with the
	// reference change a fixed fraction of the current HPWL.
	ref := refDeltaHPWLFrac * math.Max(hpwl, 1)
	s.Lambda *= max(math.Pow(1.1, math.Min(1, 1-(hpwl-s.PrevHPWL)/ref)), 0.95)
	s.PrevHPWL = hpwl
	s.setGamma(tau)
	return ""
}

// setGamma applies the overflow-driven smoothing schedule
// gamma = 8 * binW * 10^{(tau - 0.1) * 20/9 - 1}: ~80 bins of smoothing
// at tau=1 down to ~0.8 at tau=0.1.
func (s *schedule) setGamma(tau float64) {
	s.Gamma = 8 * s.binW * math.Pow(10, (tau-0.1)*20/9-1)
}

// snapshot returns the state a resume re-enters the stage's loop with at
// iteration iter, with the optimizer's state n.
func (s *schedule) snapshot(stage string, iter int, n nesterov.State) *checkpoint.GPState {
	gs := s.GPState
	gs.Stage, gs.Iter, gs.Nesterov, gs.Best = stage, iter, n, slices.Clone(gs.Best)
	return &gs
}

// divergeHPWL is the divergence threshold of a stage that starts at HPWL
// hpwl0, on nets of weights netW in region: 20x hpwl0, which catches
// blow-ups on small designs, floored at half the geometric ceiling
// (every net spanning the region). At scale, spreading a quadratic seed
// alone multiplies HPWL by far more than 20x (more still on coarse
// cluster netlists), while a clamped blow-up slams into the walls near
// the ceiling and real trajectories stay under a third of it (a
// uniformly random layout). The stall test catches what stays below.
func divergeHPWL(hpwl0 float64, netW []float64, region geom.Rect) float64 {
	threshold := 20 * math.Max(hpwl0, 1)
	var wSum float64
	for _, w := range netW {
		wSum += w
	}
	if b := 0.5 * wSum * (region.Hx - region.Lx + region.Hy - region.Ly); b > threshold {
		threshold = b
	}
	return threshold
}
