package cluster

import "eplace/internal/netlist"

// Hierarchy is a stack of progressively coarser designs for the
// V-cycle: Designs[0] is the original (finest) design, Designs[k] the
// k-th coarsening above it, and Levels[k-1] the step that links them.
type Hierarchy struct {
	// Designs lists the levels finest-first. Designs[0] aliases the
	// design Build was given; coarser designs, and their views in
	// Levels, are owned by the hierarchy.
	Designs []*netlist.Design
	// Levels[k] coarsens Designs[k] into Designs[k+1].
	Levels []*Level
}

// Build coarsens d up to maxLevels total levels (including the finest).
// Coarsening stops early when a level would be too small or too loosely
// connected to pay off, so Depth() may be less than maxLevels. The
// result depends only on the design's structure — never on cell
// positions or worker counts — so a resumed process rebuilding the
// hierarchy from the same input gets the bit-identical stack.
func Build(d *netlist.Design, maxLevels int, _ Options) *Hierarchy {
	return BuildCompiled(d.Compile(), maxLevels, nil)
}

// BuildCompiled is Build on the compiled view of the design, for a
// caller that holds one already: the flow compiles each design once per
// placement, and every coarse level comes with its own view
// (Level.View), built once when the level is, with room for room(level
// design) fillers (nil: none). The coarse cells start at the positions
// cv holds.
func BuildCompiled(cv *netlist.Compiled, maxLevels int, room func(*netlist.Design) int) *Hierarchy {
	h := &Hierarchy{Designs: []*netlist.Design{cv.Design()}}
	for k := 1; k < maxLevels; k++ {
		lvl := Coarsen(cv, room)
		if lvl == nil {
			break
		}
		h.Levels = append(h.Levels, lvl)
		h.Designs = append(h.Designs, lvl.D)
		cv = lvl.View
	}
	return h
}

// Depth returns the number of levels, counting the finest.
func (h *Hierarchy) Depth() int { return len(h.Designs) }

// Interpolate seats level k-1's movable cells, in its view, inside
// their level-k cluster footprints (k in [1, Depth-1]), handing
// positions one level down the V-cycle.
func (h *Hierarchy) Interpolate(k int) { h.Levels[k-1].Interpolate() }
