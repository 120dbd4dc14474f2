package detail

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/telemetry"
)

// refined is a GP-like layout that cDP has run to a pass with nothing to
// accept, the layout an edit finds: built once, cloned per run.
var refined = sync.OnceValues(func() (*netlist.Design, []int) {
	d, cells := gpLikeDesign(4200, 23)
	if _, err := Place(d, cells, Options{Passes: 100, Workers: 1}); err != nil {
		panic(err)
	}
	return d, cells
})

// cellsOn returns the cells on the nets, without repeats, in first-seen
// order.
func cellsOn(d *netlist.Design, nets []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, ni := range nets {
		for _, pi := range d.Nets[ni].Pins {
			if ci := d.Pins[pi].Cell; ci >= 0 && !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	return out
}

// ecoRefined is the pinned test's ECO-shaped design (ecoSubset: the
// active cells between frozen obstacles) refined the same way.
var ecoRefined = sync.OnceValues(func() (*netlist.Design, []int) {
	d, cells := bigLegalDesign(5000, 7)
	cells = ecoSubset(d, cells)
	if _, err := Place(d, cells, Options{Passes: 100, Workers: 1}); err != nil {
		panic(err)
	}
	return d, cells
})

// insertEdit splices 1% more cells into the refined layout.
func insertEdit() (*netlist.Design, []int, *Edit) {
	base, cells := refined()
	return insertInto(base, cells)
}

// ecoInsertEdit splices 1% more cells into ecoRefined's layout: the cDP
// half of a core.PlaceECO insertion.
func ecoInsertEdit() (*netlist.Design, []int, *Edit) {
	base, cells := ecoRefined()
	return insertInto(base, cells)
}

// insertInto splices 1% more cells into a copy of base, each into two
// nets of a random refined cell next to which it is legalized, with the
// refined cells pinned meanwhile.
func insertInto(base *netlist.Design, cells []int) (*netlist.Design, []int, *Edit) {
	d := base.Clone()
	rng := rand.New(rand.NewSource(5))
	for _, ci := range cells {
		d.Cells[ci].Fixed = true
	}
	var added, nets []int
	for k := 0; k < len(cells)/100; k++ {
		at := &d.Cells[cells[rng.Intn(len(cells))]]
		ci := d.AddCell(netlist.Cell{W: 2, H: 2, X: at.X, Y: at.Y})
		for _, pi := range at.Pins[:min(2, len(at.Pins))] {
			d.Connect(ci, d.Pins[pi].Net, 0, 0)
			nets = append(nets, d.Pins[pi].Net)
		}
		added = append(added, ci)
	}
	if err := legalizeStructs(d, added); err != nil {
		panic(err)
	}
	for _, ci := range cells {
		d.Cells[ci].Fixed = false
	}
	return d, append(cells[:len(cells):len(cells)], added...), &Edit{Moved: added, Changed: cellsOn(d, nets)}
}

// reweightEdit quadruples the weight of twenty nets.
func reweightEdit() (*netlist.Design, []int, *Edit) {
	base, cells := refined()
	d := base.Clone()
	var nets []int
	for k := 0; k < 20; k++ {
		ni := (211 * (k + 1)) % len(d.Nets)
		d.Nets[ni].Weight = 4
		nets = append(nets, ni)
	}
	return d, cells, &Edit{Changed: cellsOn(d, nets)}
}

// removalEdit removes 1% of the cells the way an ECO script does: each
// leaves its nets and stays as a zero-area fixed tombstone at the
// center of the slot it vacated.
func removalEdit() (*netlist.Design, []int, *Edit) {
	base, cells := refined()
	d := base.Clone()
	gone := map[int]bool{}
	var removed, nets []int
	for k := 0; k < len(cells)/100; k++ {
		ci := cells[(97*(k+1))%len(cells)]
		if gone[ci] {
			continue
		}
		gone[ci] = true
		c := &d.Cells[ci]
		for _, pi := range c.Pins {
			n := &d.Nets[d.Pins[pi].Net]
			nets = append(nets, d.Pins[pi].Net)
			for j, np := range n.Pins {
				if np == pi {
					n.Pins = append(n.Pins[:j], n.Pins[j+1:]...)
					break
				}
			}
		}
		c.Pins, c.W, c.H, c.Fixed, c.Kind = nil, 0, 0, true, netlist.Pad
		removed = append(removed, ci)
	}
	var kept []int
	for _, ci := range cells {
		if !gone[ci] {
			kept = append(kept, ci)
		}
	}
	return d, kept, &Edit{Changed: cellsOn(d, nets), Vacated: removed}
}

// placeEdited runs cDP over a fresh copy of an edited layout from the
// edit's seeded start, pricing every trial in every pass when full is
// set.
func placeEdited(t *testing.T, build func() (*netlist.Design, []int, *Edit), opt Options, full bool) placed {
	t.Helper()
	priceAll = full
	defer func() { priceAll = false }()
	d, cells, edit := build()
	rec, golden := telemetry.New(), telemetry.NewGoldenTrace()
	opt.Telemetry, opt.Golden = rec, golden
	cv := d.Compile()
	res, err := PlaceCompiled(cv, cells, edit, opt)
	if err != nil {
		t.Fatal(err)
	}
	cv.Store() // the refined layout is the view's; CheckLegal reads the structs
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("illegal after cDP: %v", err)
	}
	out := placed{res: res, digests: golden.Digests(), counters: map[string]int64{}}
	for i := range d.Cells {
		out.x, out.y = append(out.x, d.Cells[i].X), append(out.y, d.Cells[i].Y)
	}
	for _, c := range rec.Counters() {
		out.counters[c.Name] = c.Value
	}
	return out
}

// TestSeededStartFollowsTheEdit: on a refined layout, a cDP that starts
// from the edit's marks prices fewer trials than the full sweep from the
// same start and decides the same at every worker count. The design
// splits into two regions, so the marks of the seeded start and of the
// passes cross the barrier. Its HPWL is within 0.01% of the full
// sweep's on average over the four edits. One edit can land a few
// thousandths of a percent either side: the two runs accept different
// moves early and follow different greedy paths (insertions with rng
// seeds 5-9 end 0 to +0.004% from the full sweep), so each edit is held
// to 0.1%.
func TestSeededStartFollowsTheEdit(t *testing.T) {
	var opt Options // as core.PlaceECO refines
	meanGap := 0.0
	edits := []struct {
		name  string
		build func() (*netlist.Design, []int, *Edit)
	}{
		{"insert1pct", insertEdit},
		{"reweight", reweightEdit},
		{"removal", removalEdit},
		{"evict", evictEdit},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			opt.Workers = 1
			full := placeEdited(t, tc.build, opt, true)
			var first placed
			for _, w := range []int{1, 2, 7} {
				opt.Workers = w
				got := placeEdited(t, tc.build, opt, false)
				if w == 1 {
					first = got
					continue
				}
				what := fmt.Sprintf("%d workers", w)
				if got.res != first.res || !reflect.DeepEqual(got.counters, first.counters) {
					t.Errorf("%s: result %+v, counters %v; 1 worker %+v, %v", what, got.res, got.counters, first.res, first.counters)
				}
				if ok, why := telemetry.DigestsEqual(first.digests, got.digests); !ok {
					t.Errorf("%s: pass digests differ from 1 worker's: %s", what, why)
				}
				for i := range got.x {
					if math.Float64bits(got.x[i]) != math.Float64bits(first.x[i]) || math.Float64bits(got.y[i]) != math.Float64bits(first.y[i]) {
						t.Fatalf("%s: cell %d at (%v, %v), 1 worker (%v, %v)", what, i, got.x[i], got.y[i], first.x[i], first.y[i])
					}
				}
			}
			var priced, fullPriced int64
			for _, name := range passNames {
				priced += first.counters["cDP/"+name+"_priced"]
				fullPriced += full.counters["cDP/"+name+"_priced"]
			}
			if priced >= fullPriced {
				t.Errorf("the seeded start priced %d trials, the full sweep %d", priced, fullPriced)
			}
			gap := first.res.HPWLAfter/full.res.HPWLAfter - 1
			if math.Abs(gap) > 1e-3 {
				t.Errorf("HPWL %v, full sweep %v (%+.4f%%)", first.res.HPWLAfter, full.res.HPWLAfter, 100*gap)
			}
			meanGap += gap / float64(len(edits))
			t.Logf("priced %d of the full sweep's %d trials; HPWL %+.4f%% against it", priced, fullPriced, 100*gap)
		})
	}
	if meanGap > 1e-4 {
		t.Errorf("HPWL %+.4f%% against the full sweep on average, want at most +0.01%%", 100*meanGap)
	}
}

// evictEdit re-places the cells of a box over a ninth of the refined
// layout from scratch, as a block edit's eGP and legalization leave
// them: scattered over the box, then legalized with the other cells
// pinned.
func evictEdit() (*netlist.Design, []int, *Edit) {
	base, cells := refined()
	d := base.Clone()
	r := d.Region
	box := geom.Rect{Lx: r.Lx + r.W()/3, Ly: r.Ly + r.H()/3, Hx: r.Lx + 2*r.W()/3, Hy: r.Ly + 2*r.H()/3}
	rng := rand.New(rand.NewSource(3))
	var evicted []int
	for _, ci := range cells {
		c := &d.Cells[ci]
		if box.Contains(geom.Point{X: c.X, Y: c.Y}) {
			c.X, c.Y = box.Lx+rng.Float64()*box.W(), box.Ly+rng.Float64()*box.H()
			evicted = append(evicted, ci)
		} else {
			c.Fixed = true
		}
	}
	if err := legalizeStructs(d, evicted); err != nil {
		panic(err)
	}
	for _, ci := range cells {
		d.Cells[ci].Fixed = false
	}
	return d, cells, &Edit{Moved: evicted}
}

// TestSeededStartSwapsEvictedCells: an edit that legalizes many cells
// again leaves the disorder swaps repair, so the seeded start gives the
// moved cells swap turns and ends within 0.2% of a cold start over the
// same layout (+0.04% measured; without the turns, +3.4%), while
// pricing fewer swap trials than the cold start.
func TestSeededStartSwapsEvictedCells(t *testing.T) {
	run := func(seeded bool) placed {
		build := func() (*netlist.Design, []int, *Edit) {
			d, cells, edit := evictEdit()
			if !seeded {
				edit = nil
			}
			return d, cells, edit
		}
		return placeEdited(t, build, Options{Workers: 1}, false)
	}
	seeded, cold := run(true), run(false)
	gap := seeded.res.HPWLAfter/cold.res.HPWLAfter - 1
	t.Logf("HPWL %+.4f%% against the cold start; swap trials priced %d, cold %d",
		100*gap, seeded.counters["cDP/swap_priced"], cold.counters["cDP/swap_priced"])
	if gap > 2e-3 {
		t.Errorf("HPWL %v, cold start %v (%+.3f%%), want at most +0.2%%", seeded.res.HPWLAfter, cold.res.HPWLAfter, 100*gap)
	}
	if n, c := seeded.counters["cDP/swap_priced"], cold.counters["cDP/swap_priced"]; n == 0 || n >= c {
		t.Errorf("the seeded start priced %d swap trials, the cold start %d", n, c)
	}
}
