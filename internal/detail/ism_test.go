package detail

import (
	"math"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/legalize"
	"eplace/internal/netlist"
)

// hungarian solves the square assignment problem over a 2D cost matrix
// (test convenience around hungScratch.solve).
func hungarian(cost [][]float64) []int {
	n := len(cost)
	flat := make([]float64, n*n)
	for i, row := range cost {
		copy(flat[i*n:(i+1)*n], row)
	}
	var s hungScratch
	out := make([]int, n)
	copy(out, s.solve(n, flat))
	return out
}

func TestHungarianKnownMatrices(t *testing.T) {
	cases := []struct {
		cost [][]float64
		want []int
		sum  float64
	}{
		{
			cost: [][]float64{{1, 2}, {2, 1}},
			want: []int{0, 1},
			sum:  2,
		},
		{
			cost: [][]float64{{2, 1}, {1, 2}},
			want: []int{1, 0},
			sum:  2,
		},
		{
			// Classic 3x3: optimal assignment 0->1, 1->0, 2->2 (sum 5).
			cost: [][]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}},
			want: nil, // check sum only (ties possible)
			sum:  5,
		},
	}
	for k, c := range cases {
		got := hungarian(c.cost)
		sum := 0.0
		seen := map[int]bool{}
		for i, j := range got {
			sum += c.cost[i][j]
			if seen[j] {
				t.Fatalf("case %d: column %d assigned twice", k, j)
			}
			seen[j] = true
		}
		if math.Abs(sum-c.sum) > 1e-9 {
			t.Errorf("case %d: sum = %v, want %v (assign %v)", k, sum, c.sum, got)
		}
		if c.want != nil {
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("case %d: assign = %v, want %v", k, got, c.want)
					break
				}
			}
		}
	}
}

func TestHungarianIsOptimalBruteForce(t *testing.T) {
	cost := [][]float64{
		{7, 3, 9, 1},
		{2, 8, 4, 6},
		{5, 5, 2, 8},
		{6, 1, 7, 3},
	}
	got := hungarian(cost)
	gotSum := 0.0
	for i, j := range got {
		gotSum += cost[i][j]
	}
	best := math.Inf(1)
	for _, perm := range permutations(4) {
		s := 0.0
		for i, j := range perm {
			s += cost[i][j]
		}
		if s < best {
			best = s
		}
	}
	if math.Abs(gotSum-best) > 1e-9 {
		t.Errorf("hungarian sum %v, brute force optimum %v", gotSum, best)
	}
}

// TestISMUntanglesCrossedCells: two equal-width cells placed at each
// other's ideal slots; pairwise swap also finds this, so disable swaps
// by construction: put them in different rows where only ISM (cross-
// segment, equal-width) can exchange them.
func TestISMUntanglesCrossedCells(t *testing.T) {
	d := netlist.New("ism", geom.Rect{Hx: 60, Hy: 8})
	legalize.BuildRows(d, 2, 1)
	// a at left of row 0, tied to a pad at the right; b at right of row
	// 1, tied to a pad at the left. Exchanging them fixes both nets.
	a := d.AddCell(netlist.Cell{W: 4, H: 2, X: 5, Y: 1})
	b := d.AddCell(netlist.Cell{W: 4, H: 2, X: 55, Y: 3})
	padR := d.AddCell(netlist.Cell{W: 1, H: 1, X: 58.5, Y: 0.5, Fixed: true, Kind: netlist.Pad})
	padL := d.AddCell(netlist.Cell{W: 1, H: 1, X: 1.5, Y: 2.5, Fixed: true, Kind: netlist.Pad})
	n1 := d.AddNet("", 1)
	d.Connect(a, n1, 0, 0)
	d.Connect(padR, n1, 0, 0)
	n2 := d.AddNet("", 1)
	d.Connect(b, n2, 0, 0)
	d.Connect(padL, n2, 0, 0)

	cells := []int{a, b}
	before := d.HPWL()
	res, err := Place(d, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter >= before {
		t.Errorf("ISM did not improve: %v -> %v", before, res.HPWLAfter)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("illegal after ISM: %v", err)
	}
	// The cells swapped rows.
	if !(d.Cells[a].X > 40 && d.Cells[b].X < 20) {
		t.Errorf("cells not exchanged: a at %v, b at %v", d.Cells[a].X, d.Cells[b].X)
	}
}

func TestISMPreservesLegalityAtScale(t *testing.T) {
	d, cells := legalDesign(300, 9)
	res, err := Place(d, cells, Options{Passes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("illegal after ISM-enabled detail: %v", err)
	}
	_ = res
}

// TestISMImprovesOverDisabled: once the other three pass types have run
// four passes without ISM, an ISM pass still finds exchanges they
// cannot, and the layout it leaves is shorter and legal.
func TestISMImprovesOverDisabled(t *testing.T) {
	priceAll = true
	defer func() { priceAll = false }()
	d, cells := legalDesign(400, 10)
	p := buildPlacer(d, cells, 1)
	var res Result
	for p.pass = 0; p.pass < 4; p.pass++ {
		if p.reorderPass(&res)+p.swapPass(&res)+p.relocatePass(&res) == 0 {
			break
		}
	}
	without := p.cv.HPWL()
	p.ismPass(&res)
	p.cv.Store() // CheckLegal reads the Cell structs
	if res.ISMRounds == 0 {
		t.Fatal("ISM never fired")
	}
	if with := p.cv.HPWL(); with >= without {
		t.Errorf("ISM left HPWL %v, the other passes alone %v", with, without)
	}
	if err := legalize.CheckLegal(d, cells); err != nil {
		t.Fatalf("illegal after ISM: %v", err)
	}
}

func TestIndependentSubsetSharesNoNets(t *testing.T) {
	d, cells := legalDesign(100, 11)
	p := buildPlacer(d, cells, 1)
	set := p.evals[0].independentSubset(cells)
	seen := map[int]bool{}
	for _, ci := range set {
		for _, pi := range d.Cells[ci].Pins {
			ni := d.Pins[pi].Net
			if seen[ni] {
				t.Fatalf("cells share net %d", ni)
			}
			seen[ni] = true
		}
	}
}

// TestDetailPlaceDeterministic pins the determinism contract of the
// whole detail placer: two runs from identical starting layouts must
// produce bitwise-identical positions and statistics. ISM group order,
// the touched-segment repair, and every segment sort are exercised.
func TestDetailPlaceDeterministic(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		d1, cells1 := legalDesign(300, seed)
		d2, cells2 := legalDesign(300, seed)
		r1, err := Place(d1, cells1, Options{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Place(d2, cells2, Options{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r1.HPWLAfter != r2.HPWLAfter || r1.Swaps != r2.Swaps ||
			r1.Reorders != r2.Reorders || r1.ISMRounds != r2.ISMRounds {
			t.Fatalf("seed %d: results differ: %+v vs %+v", seed, r1, r2)
		}
		for i := range d1.Cells {
			if math.Float64bits(d1.Cells[i].X) != math.Float64bits(d2.Cells[i].X) ||
				math.Float64bits(d1.Cells[i].Y) != math.Float64bits(d2.Cells[i].Y) {
				t.Fatalf("seed %d: cell %d position differs: (%v,%v) vs (%v,%v)",
					seed, i, d1.Cells[i].X, d1.Cells[i].Y, d2.Cells[i].X, d2.Cells[i].Y)
			}
		}
	}
}
