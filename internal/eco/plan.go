package eco

import (
	"fmt"
	"math"
	"sort"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// PlanOptions tunes the freeze planner. It has no fields: the planner's
// parameters are the constants below.
type PlanOptions struct{}

const (
	// planHops is how many net-adjacency hops the active set expands
	// from the edited cells: their direct neighbors re-place too, so new
	// connectivity can pull them.
	planHops = 1
	// planRadiusFrac is the geometric halo around edited cells, as a
	// fraction of the shorter region side. Every movable standard cell
	// within the halo is re-placed; everything beyond stays frozen at its
	// converged position.
	planRadiusFrac = 0.04
	// planMaxNetDegree stops net-hop expansion through hub nets larger
	// than this: a clock-like net would otherwise activate the whole
	// design.
	planMaxNetDegree = 64
	// planGridN is the per-side resolution of the halo's bin grid.
	planGridN = 32
	// evictHaloFrac is the eviction halo around a new fixed footprint, as
	// a fraction of the footprint's span √(w·h).
	evictHaloFrac = 0.5
)

// Plan is the freeze decision: which movable cells are re-placed and
// which are reused (frozen: held as obstacles) for one ECO run.
type Plan struct {
	// Seeds are the changed cells (movable or fixed) the activity
	// radiates from, ascending.
	Seeds []int
	// Active are the movable standard cells to re-place, ascending.
	// Added cells are always active.
	Active []int
	// Frozen are the movable cells reused verbatim (standard cells
	// outside the activity halo plus every movable macro), ascending.
	Frozen []int
	// Fresh are the geometric seeds: cells whose physical footprint is
	// new or changed (insertions, blockages, tombstones), ascending.
	// Unlike the rest of the active set, these cells have no trusted
	// legal slot in the reused placement.
	Fresh []int
	// Evicted are the active cells, Fresh excluded, whose input slot
	// overlaps a new fixed footprint expanded by evictHaloFrac of its span,
	// ascending. They lose their slot; every other active cell that is not
	// Fresh keeps it.
	Evicted []int
	// DirtyBins counts activity bins out of planGridN² (diagnostics).
	DirtyBins int
}

// buildPlan decides the active/frozen split for the given changed-cell
// set (typically Change.Cells). An empty changed set yields an empty
// plan: the previous placement is reusable as-is.
//
// The active set is the union of (a) the changed movable standard
// cells, (b) their net neighbors up to planHops hops (skipping hub nets
// beyond planMaxNetDegree), and (c) every movable standard cell
// centered in a planGridN bin within the planRadiusFrac halo of a
// geometric seed's footprint.
// Geometric seeds (fresh) are the cells whose physical footprint
// changed — insertions, removals, blockages — and are typically a
// small subset of changed: a net reweight marks every member cell
// changed, but those cells did not move, so radiating halos from them
// would activate most of the die for a purely electrical edit.
// Movable macros are never activated: re-legalizing macros would
// perturb the whole layout, defeating the reuse (macro edits should
// fall back to a cold placement). Of the active cells, those a new
// fixed footprint's halo reaches are Evicted; only a blockage evicts.
func buildPlan(d *netlist.Design, changed, fresh []int) *Plan {
	p := &Plan{}
	if len(changed) == 0 {
		// Everything movable is reused.
		for i := range d.Cells {
			if !d.Cells[i].Fixed {
				p.Frozen = append(p.Frozen, i)
			}
		}
		return p
	}
	p.Seeds = append([]int(nil), changed...)
	sort.Ints(p.Seeds)
	p.Fresh = append([]int(nil), fresh...)
	sort.Ints(p.Fresh)

	active := make([]bool, len(d.Cells))
	markActive := func(ci int) {
		c := &d.Cells[ci]
		if !c.Fixed && c.Kind == netlist.StdCell {
			active[ci] = true
		}
	}
	for _, ci := range p.Seeds {
		markActive(ci)
	}

	// Net-hop expansion from the seeds (through the seeds' nets even
	// when a seed itself is fixed or a macro: its neighbors still feel
	// the edit).
	frontier := append([]int(nil), p.Seeds...)
	for hop := 0; hop < planHops; hop++ {
		var next []int
		for _, ci := range frontier {
			for _, pi := range d.Cells[ci].Pins {
				ni := d.Pins[pi].Net
				if len(d.Nets[ni].Pins) > planMaxNetDegree {
					continue
				}
				for _, np := range d.Nets[ni].Pins {
					oc := d.Pins[np].Cell
					if oc < 0 || active[oc] {
						continue
					}
					c := &d.Cells[oc]
					if !c.Fixed && c.Kind == netlist.StdCell {
						active[oc] = true
						next = append(next, oc)
					}
				}
			}
		}
		frontier = next
	}

	// Geometric halo, bin-granular: mark every bin whose extent lies
	// within radius of a geometric seed's footprint, then activate the
	// movable standard cells centered in dirty bins. Bin-snapping keeps
	// the halo deterministic and O(cells + seeds*bins-per-halo).
	n := planGridN
	binW := d.Region.W() / float64(n)
	binH := d.Region.H() / float64(n)
	radius := planRadiusFrac * math.Min(d.Region.W(), d.Region.H())
	dirty := make([]bool, n*n)
	clampBin := func(b int) int {
		if b < 0 {
			return 0
		}
		if b >= n {
			return n - 1
		}
		return b
	}
	for _, ci := range fresh {
		r := d.Cells[ci].Rect().Expand(radius)
		bx0 := clampBin(int((r.Lx - d.Region.Lx) / binW))
		bx1 := clampBin(int((r.Hx - d.Region.Lx) / binW))
		by0 := clampBin(int((r.Ly - d.Region.Ly) / binH))
		by1 := clampBin(int((r.Hy - d.Region.Ly) / binH))
		for by := by0; by <= by1; by++ {
			for bx := bx0; bx <= bx1; bx++ {
				dirty[by*n+bx] = true
			}
		}
	}
	for _, on := range dirty {
		if on {
			p.DirtyBins++
		}
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Fixed || c.Kind != netlist.StdCell || active[ci] {
			continue
		}
		bx := clampBin(int(float64(n) * (c.X - d.Region.Lx) / d.Region.W()))
		by := clampBin(int(float64(n) * (c.Y - d.Region.Ly) / d.Region.H()))
		if dirty[by*n+bx] {
			active[ci] = true
		}
	}

	// Eviction halos: a new fixed footprint (a blockage) displaces the
	// cells under it and the ring around it, whose width scales with the
	// obstacle, so the displaced area has room to land near it.
	var halos []geom.Rect
	isFresh := make([]bool, len(d.Cells))
	for _, ci := range p.Fresh {
		isFresh[ci] = true
		if c := &d.Cells[ci]; c.Fixed && c.W > 0 && c.H > 0 {
			halos = append(halos, EvictionHalo(c.Rect()))
		}
	}
	for ci := range d.Cells {
		if d.Cells[ci].Fixed {
			continue
		}
		if !active[ci] {
			p.Frozen = append(p.Frozen, ci)
			continue
		}
		p.Active = append(p.Active, ci)
		// Abutting within rounding is not overlapping.
		for _, h := range halos {
			if ov := d.Cells[ci].Rect().Intersect(h); !isFresh[ci] && ov.W() > 1e-9 && ov.H() > 1e-9 {
				p.Evicted = append(p.Evicted, ci)
				break
			}
		}
	}
	return p
}

// EvictionHalo is the rectangle a new fixed footprint r evicts cells
// from: r expanded by evictHaloFrac of its span √(w·h).
func EvictionHalo(r geom.Rect) geom.Rect {
	return r.Expand(evictHaloFrac * math.Sqrt(r.W()*r.H()))
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("eco plan: %d seeds, %d active, %d evicted, %d frozen, %d/%d dirty bins",
		len(p.Seeds), len(p.Active), len(p.Evicted), len(p.Frozen), p.DirtyBins, planGridN*planGridN)
}

// Prepared bundles everything an ECO run needs, produced by Prepare.
type Prepared struct {
	Change *Change
	Plan   *Plan
}

// Prepare applies the edit script and builds the freeze plan from the
// cells the edit changed. The design is mutated in place (see Apply);
// the previous placement's positions are untouched except for newly
// added cells.
func Prepare(d *netlist.Design, s *Script, _ PlanOptions) (*Prepared, error) {
	ch, err := Apply(d, s)
	if err != nil {
		return nil, err
	}
	// Halos radiate only from cells whose footprint actually changed;
	// electrically-changed cells (reweighted net members, new-cell
	// neighbors) re-place via the net-hop expansion alone.
	var fresh []int
	fresh = append(fresh, ch.Added...)
	fresh = append(fresh, ch.Removed...)
	fresh = append(fresh, ch.Blocked...)
	sort.Ints(fresh)
	return &Prepared{Change: ch, Plan: buildPlan(d, ch.Cells, fresh)}, nil
}
