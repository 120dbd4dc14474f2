package core

import (
	"eplace/internal/cluster"
	"eplace/internal/netlist"
)

// MLLevel is one coarse level's global-placement result in a multilevel
// run, recorded coarsest-first. The finest level's result stays in
// FlowResult.MGP.
type MLLevel struct {
	// Level is the hierarchy level (Depth-1 = coarsest, 1 = the level
	// just above the input design).
	Level int
	// Cells is the level's cell count, fillers aside.
	Cells int
	// Result is the level's global-placement summary.
	Result Result
}

// buildHierarchy coarsens the run's design for the V-cycle, scoring on
// its compiled view cv, or returns nil when multilevel mode is off or the
// design is too small for even one level to pay off (the flow then
// places flat, which is also what a resumed run of such a design
// deterministically rebuilds).
func buildHierarchy(cv *netlist.Compiled, opt *FlowOptions) *cluster.Hierarchy {
	if opt.Levels <= 1 {
		return nil
	}
	h := cluster.BuildCompiled(cv, opt.Levels, cluster.Options{CapFactor: opt.ClusterCap})
	if h.Depth() <= 1 {
		return nil
	}
	return h
}

// mlGridM derives level k's bin grid from the finest-level override:
// halved per level (floored at the grid minimum) so coarse levels pair
// coarse bins with their reduced netlists. With GridM == 0 every level
// auto-sizes to its own object count (grid.ChooseM), which realizes
// the same coarse-early/fine-late schedule — the density grid refines
// exactly as the V-cycle descends and overflow drops.
func mlGridM(gridM, k int) int {
	if gridM <= 0 {
		return 0
	}
	m := gridM >> k
	if m < 16 {
		m = 16
	}
	return m
}

// coarseOverflow is the stopping overflow for level k (k >= 1, above
// the finest): coarse solutions are only warm starts for the next
// level, so each stops at a looser target the deeper it sits — 0.15 at
// L1, +0.05 per level, capped at 0.30. Chasing a tight target on a
// tiny coarse netlist is where a naive V-cycle loses its speedup: a
// coarsest level can burn hundreds of iterations closing the last few
// percent of overflow that interpolation then discards anyway.
func coarseOverflow(target float64, k int) float64 {
	f := 0.10 + 0.05*float64(k)
	if f > 0.30 {
		f = 0.30
	}
	if target > f {
		return target
	}
	return f
}
