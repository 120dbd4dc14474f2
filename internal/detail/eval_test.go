package detail

import (
	"math"
	"math/rand"
	"testing"

	"eplace/internal/netlist"
)

// netHPWL is the pricing every pass used before the trial evaluator,
// kept as its oracle: net ni walked pin by pin, each pin's cell looked
// up first among the trial cells (at xs/ys), then through the context's
// live/snapshot rule, extremes found by compare-and-assign.
func (e *evalCtx) netHPWL(ni int, cells []int, xs, ys []float64) float64 {
	p, cv := e.p, e.p.cv
	lo, hi := cv.NetOff[ni], cv.NetOff[ni+1]
	if hi-lo < 2 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k := lo; k < hi; k++ {
		x, y := cv.PinOx[k], cv.PinOy[k]
		if ci := cv.PinCell[k]; ci >= 0 {
			cx, cy := cv.PosX[ci], cv.PosY[ci]
			if r := p.regionOf[ci]; !e.allLive && r >= 0 && r != e.region {
				cx, cy = p.snapX[ci], p.snapY[ci]
			}
			for s, tc := range cells {
				if tc == int(ci) {
					cx, cy = xs[s], ys[s]
					break
				}
			}
			x += cx
			y += cy
		}
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return cv.NetW[ni] * ((maxX - minX) + (maxY - minY))
}

// hpwlOf sums netHPWL over the distinct nets of the trial cells in
// first-encounter order, read from the source structures.
func (e *evalCtx) hpwlOf(cells []int, xs, ys []float64) float64 {
	d := e.p.d
	seen := map[int]bool{}
	s := 0.0
	for _, ci := range cells {
		for _, pi := range d.Cells[ci].Pins {
			if ni := d.Pins[pi].Net; !seen[ni] {
				seen[ni] = true
				s += e.netHPWL(ni, cells, xs, ys)
			}
		}
	}
	return s
}

// oracleDesign is a two-region design with every net shape the
// evaluator special-cases hung onto its first cells: a cell with two
// pins on one net, a net wholly on cells 0 and 1, a one-pin net, a
// floating terminal, explicit zero and fractional weights, pin offsets.
func oracleDesign() (*netlist.Design, []int) {
	d, cells := bigLegalDesign(4500, 21)
	twice := d.AddNet("twice", 2.5)
	d.Connect(cells[0], twice, 0.5, -0.25)
	d.Connect(cells[0], twice, -0.5, 0.25)
	d.Connect(cells[7], twice, 0, 0)
	closed := d.AddNet("closed", 0)
	d.Connect(cells[0], closed, 0.25, 0)
	d.Connect(cells[1], closed, 0, 0.5)
	d.Connect(cells[1], closed, -1, 0)
	d.Connect(cells[2], d.AddNet("lone", 3), 0, 0)
	float := d.AddNet("float", 0.5)
	d.Connect(-1, float, 17.25, 40.5)
	d.Connect(cells[1], float, 0, 0)
	d.Connect(cells[3], float, 0.75, 0)
	return d, cells
}

// trialSet draws n distinct cells: the seed, then net neighbours of the
// cells picked so far (shared nets) or arbitrary cells, half and half.
func trialSet(rng *rand.Rand, d *netlist.Design, cells []int, seed, n int) []int {
	set := []int{seed}
	for tries := 0; len(set) < n && tries < 20*n; tries++ {
		c := cells[rng.Intn(len(cells))]
		if from := d.Cells[set[rng.Intn(len(set))]]; len(from.Pins) > 0 && rng.Intn(2) == 0 {
			net := d.Nets[d.Pins[from.Pins[rng.Intn(len(from.Pins))]].Net]
			c = d.Pins[net.Pins[rng.Intn(len(net.Pins))]].Cell
		}
		if c >= 0 && !d.Cells[c].Fixed && indexOf(set, c) < 0 {
			set = append(set, c)
		}
	}
	return set
}

// TestTrialCostMatchesFullWalk holds begin+cost, and the swap pass's
// cached halves, to the bits of a full walk of the trial's nets, with
// the other region's live positions drifted off the snapshot the way
// concurrent workers drift them.
func TestTrialCostMatchesFullWalk(t *testing.T) {
	d, cells := oracleDesign()
	p := buildPlacer(d, cells, 1)
	if len(p.regions) < 2 {
		t.Fatalf("want at least two regions, got %d", len(p.regions))
	}
	rng := rand.New(rand.NewSource(5))
	side := d.Region.W()
	p.snapshot()
	for _, ci := range cells {
		if rng.Intn(3) == 0 {
			p.cv.PosX[ci] += rng.Float64() - 0.5
		}
	}
	e := p.evals[0]
	xs, ys := make([]float64, 16), make([]float64, 16)
	draw := func(n int) {
		for i := 0; i < n; i++ {
			xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
		}
	}
	check := func(what string, set []int) {
		t.Helper()
		copy(e.tx, xs[:len(set)])
		copy(e.ty, ys[:len(set)])
		got, want := e.cost(), e.hpwlOf(set, xs, ys)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s over %v (region %d, allLive %v): cost %v, full walk %v",
				what, set, e.region, e.allLive, got, want)
		}
	}
	for iter := 0; iter < 600; iter++ {
		e.allLive = iter%3 == 0
		seed := cells[rng.Intn(len(cells))]
		if iter%4 == 0 {
			seed = cells[iter/4%4] // the constructed nets
		}
		e.region = p.regionOf[seed]
		set := trialSet(rng, d, cells, seed, 1+iter%16)
		e.begin(set)
		for rep := 0; rep < 3; rep++ {
			draw(len(set))
			check("begin", set)
		}

		// The swap pass: the set stands in for a segment, every pair of
		// it is priced from the cached halves, then again after a swap
		// was applied the way trySwap applies one.
		seg := &segCells{cells: append([]int(nil), set[:min(len(set), 6)]...)}
		e.dropHalves(len(seg.cells))
		for round := 0; round < 2 && len(seg.cells) > 1; round++ {
			for ka := range seg.cells {
				for kb := ka + 1; kb < len(seg.cells); kb++ {
					e.beginPair(seg, ka, kb)
					draw(2)
					check("pair", []int{seg.cells[ka], seg.cells[kb]})
				}
			}
			a, b := seg.cells[0], seg.cells[1]
			p.cv.PosX[a], p.cv.PosX[b] = p.cv.PosX[b], p.cv.PosX[a]
			p.cv.PosY[a], p.cv.PosY[b] = p.cv.PosY[b], p.cv.PosY[a]
			seg.cells[0], seg.cells[1] = b, a
			e.dropHalves(len(seg.cells))
		}
	}
}
