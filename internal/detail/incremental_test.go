package detail

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
	"eplace/internal/telemetry"
)

// gpLikeDesign is bigLegalDesign with the nets a global placement leaves
// behind: every net joins cells that start close together, so the
// legalized start is near a local optimum and most trials are rejected
// from the first pass on.
func gpLikeDesign(n int, seed int64) (*netlist.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n) * 3 * 2 / 0.55)
	side = math.Ceil(side/2) * 2
	d := netlist.New("dp-gp", geom.Rect{Hx: side, Hy: side})
	legalize.BuildRows(d, 2, 1)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pitch := (side - 4) / float64(cols)
	var cells []int
	for i := 0; i < n; i++ {
		cells = append(cells, d.AddCell(netlist.Cell{
			W: float64(2 + rng.Intn(3)), H: 2,
			X: 2 + (float64(i%cols)+rng.Float64())*pitch,
			Y: 2 + (float64(i/cols)+rng.Float64())*pitch,
		}))
	}
	for k := 0; k < n; k++ {
		ni := d.AddNet("", 1)
		at := rng.Intn(n)
		for p, deg := 0, 2+rng.Intn(3); p < deg; p++ {
			to := at + (rng.Intn(5) - 2) + cols*(rng.Intn(5)-2)
			d.Connect(cells[min(max(to, 0), n-1)], ni, 0, 0)
		}
	}
	if err := legalizeStructs(d, cells); err != nil {
		panic(err)
	}
	return d, cells
}

// placed is everything a cDP run decides.
type placed struct {
	res      Result
	x, y     []float64
	digests  []telemetry.StageDigest
	counters map[string]int64
}

// placeWith runs cDP over a fresh design from build, pricing every trial
// in every pass when full is set.
func placeWith(t *testing.T, build func() (*netlist.Design, []int), opt Options, full bool) placed {
	t.Helper()
	priceAll = full
	defer func() { priceAll = false }()
	d, cells := build()
	rec, golden := telemetry.New(), telemetry.NewGoldenTrace()
	opt.Telemetry, opt.Golden = rec, golden
	res, err := Place(d, cells, opt)
	if err != nil {
		t.Fatal(err)
	}
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

// sameRun holds an incremental run to the full sweep's: every position
// bit, Result counter and pass digest, and every trial the full sweep
// priced either priced or skipped. It returns the share skipped.
func sameRun(t *testing.T, what string, full, inc placed) float64 {
	t.Helper()
	if inc.res != full.res {
		t.Errorf("%s: result %+v, full sweep %+v", what, inc.res, full.res)
	}
	if ok, why := telemetry.DigestsEqual(full.digests, inc.digests); !ok {
		t.Errorf("%s: pass digests differ from the full sweep's: %s", what, why)
	}
	for i := range full.x {
		if math.Float64bits(inc.x[i]) != math.Float64bits(full.x[i]) ||
			math.Float64bits(inc.y[i]) != math.Float64bits(full.y[i]) {
			t.Fatalf("%s: cell %d at (%v, %v), full sweep (%v, %v)",
				what, i, inc.x[i], inc.y[i], full.x[i], full.y[i])
		}
	}
	var priced, skipped int64
	for _, name := range passNames {
		p, s := "cDP/"+name+"_priced", "cDP/"+name+"_skipped"
		if full.counters[s] != 0 {
			t.Errorf("%s: the full sweep skipped %d %s trials", what, full.counters[s], name)
		}
		if got := inc.counters[p] + inc.counters[s]; got != full.counters[p] {
			t.Errorf("%s: %s priced %d + skipped %d = %d trials, the full sweep priced %d",
				what, name, inc.counters[p], inc.counters[s], got, full.counters[p])
		}
		priced += inc.counters[p]
		skipped += inc.counters[s]
	}
	return float64(skipped) / float64(priced+skipped)
}

// TestIncrementalPassesMatchFullSweep: pricing only the trials whose
// inputs changed decides what pricing every trial decides. The random
// start accepts one trial in ten, so marks land everywhere; the GP-like
// one rejects nearly everything, so nearly everything rides on a skip
// being right; the ECO one refines a subset between frozen obstacles.
// All three split into at least three regions, so marks cross the
// barrier.
func TestIncrementalPassesMatchFullSweep(t *testing.T) {
	starts := []struct {
		name  string
		build func() (*netlist.Design, []int)
	}{
		{"random", func() (*netlist.Design, []int) { return bigLegalDesign(8200, 17) }},
		{"gp-like", func() (*netlist.Design, []int) { return gpLikeDesign(8200, 18) }},
		{"eco", func() (*netlist.Design, []int) {
			d, cells := bigLegalDesign(16500, 19)
			return d, ecoSubset(d, cells)
		}},
	}
	workers := []int{1, 2, 7}
	for _, st := range starts {
		opt := Options{Passes: 6, Workers: 1}
		full := placeWith(t, st.build, opt, true)
		var first placed
		for k, w := range workers {
			opt.Workers = w
			what := fmt.Sprintf("%s start, %d workers", st.name, w)
			inc := placeWith(t, st.build, opt, false)
			skipped := sameRun(t, what, full, inc)
			if k == 0 {
				first = inc
			} else if !reflect.DeepEqual(inc.counters, first.counters) {
				t.Errorf("%s: counters %v, at %d workers %v", what, inc.counters, workers[0], first.counters)
			}
			t.Logf("%s: %.1f%% of the trials skipped", what, 100*skipped)
			if st.name == "gp-like" && skipped < 0.2 {
				t.Errorf("%s: %.0f%% of the trials skipped, want an incremental run", what, 100*skipped)
			}
		}
	}
}

// TestISMExchangeMarksNeighbours: ISM sends a cell to another segment and
// another cell takes its slot, so the slot's neighbours sit where they
// sat next to a cell they have never been priced with. They have to be
// dirty, with the movers and the cells on their nets, and nothing else.
func TestISMExchangeMarksNeighbours(t *testing.T) {
	build := func() (*netlist.Design, []int) {
		d := netlist.New("ism-leave", geom.Rect{Hx: 60, Hy: 8})
		legalize.BuildRows(d, 2, 1)
		// Row 0: l a r abutting at the left; row 1: b at the right, with
		// its own neighbours; far sits alone in row 2 on a net of its own.
		l := d.AddCell(netlist.Cell{W: 3, H: 2, X: 3.5, Y: 1})
		a := d.AddCell(netlist.Cell{W: 4, H: 2, X: 7, Y: 1})
		r := d.AddCell(netlist.Cell{W: 2, H: 2, X: 10, Y: 1})
		m := d.AddCell(netlist.Cell{W: 3, H: 2, X: 50.5, Y: 3})
		b := d.AddCell(netlist.Cell{W: 4, H: 2, X: 54, Y: 3})
		far := d.AddCell(netlist.Cell{W: 5, H: 2, X: 30, Y: 5})
		padR := d.AddCell(netlist.Cell{W: 1, H: 1, X: 59.5, Y: 0.5, Fixed: true, Kind: netlist.Pad})
		padL := d.AddCell(netlist.Cell{W: 1, H: 1, X: 0.5, Y: 2.5, Fixed: true, Kind: netlist.Pad})
		padM := d.AddCell(netlist.Cell{W: 1, H: 1, X: 30, Y: 7.5, Fixed: true, Kind: netlist.Pad})
		for _, pair := range [][2]int{{a, padR}, {b, padL}, {far, padM}, {l, r}, {m, padR}} {
			ni := d.AddNet("", 1)
			d.Connect(pair[0], ni, 0, 0)
			d.Connect(pair[1], ni, 0, 0)
		}
		return d, []int{l, a, r, m, b, far}
	}
	d, cells := build()
	l, a, r, m, b, far := cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
	p := buildPlacer(d, cells, 1)
	p.pass = 1 // the zeroed stamps are clean from pass 1 on
	var res Result
	if p.ismPass(&res); res.ISMRounds != 1 || p.cv.PosX[a] != 54 || p.cv.PosX[b] != 7 {
		t.Fatalf("ISM did not exchange a and b: %d rounds, a at %v, b at %v", res.ISMRounds, p.cv.PosX[a], p.cv.PosX[b])
	}
	if got, want := p.segs[p.segOf[l]].cells, []int{l, b, r}; !slices.Equal(got, want) {
		t.Errorf("row 0 holds %v after the exchange, want %v", got, want)
	}
	for _, ci := range []int{a, b, l, r, m} {
		if !p.dirty(ci) {
			t.Errorf("cell %d is clean after the exchange", ci)
		}
	}
	if p.dirty(far) {
		t.Errorf("cell %d, on no mover's net or segment, is dirty", far)
	}
	opt := Options{Passes: 6}
	sameRun(t, "ISM exchange", placeWith(t, build, opt, true), placeWith(t, build, opt, false))
}
