package eco

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"eplace/internal/netlist"
	"eplace/internal/synth"
)

func testDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := synth.Generate(synth.Spec{Name: "eco-ut", NumCells: 200, Seed: 3})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestApplyAddRemoveReweightBlock(t *testing.T) {
	d := testDesign(t)
	nc, nn := len(d.Cells), len(d.Nets)
	victim := d.Cells[d.MovableOf(netlist.StdCell)[0]].Name

	s := &Script{
		AddCells:     []AddCell{{Name: "eco_new", W: 2, H: 2, NetIDs: []int{0, 1}}},
		RemoveCells:  []string{victim},
		ReweightNets: []Reweight{{NetID: 2, Weight: 5}},
		BlockRegions: []Block{{Lx: d.Region.Lx, Ly: d.Region.Ly, Hx: d.Region.Lx + 10, Hy: d.Region.Ly + 10}},
	}
	ch, err := Apply(d, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Added) != 1 || len(ch.Removed) != 1 || len(ch.Reweighted) != 1 || len(ch.Blocked) != 1 {
		t.Fatalf("change = %+v", ch)
	}
	// Added cell connected and inside the region.
	ai := ch.Added[0]
	if got := len(d.Cells[ai].Pins); got != 2 {
		t.Fatalf("added cell has %d pins, want 2", got)
	}
	// Tombstone: zero-size, fixed, detached; index layout unchanged.
	ri := ch.Removed[0]
	c := &d.Cells[ri]
	if !c.Fixed || c.W != 0 || c.H != 0 || len(c.Pins) != 0 {
		t.Fatalf("tombstone = %+v", c)
	}
	if len(d.Cells) != nc+2 || len(d.Nets) != nn {
		t.Fatalf("got %d cells %d nets, want %d cells %d nets", len(d.Cells), len(d.Nets), nc+2, nn)
	}
	if d.Nets[2].EffWeight() != 5 {
		t.Fatalf("net 2 weight = %v", d.Nets[2].EffWeight())
	}
	if bc := &d.Cells[ch.Blocked[0]]; !bc.Fixed || bc.Kind != netlist.Macro {
		t.Fatalf("blockage = %+v", bc)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("edited design invalid: %v", err)
	}
	// Removing the same cell again must fail.
	if _, err := Apply(d, &Script{RemoveCells: []string{victim}}); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestApplyRejectsBadEdits(t *testing.T) {
	for _, s := range []*Script{
		{AddCells: []AddCell{{Name: "", W: 1, H: 1}}},
		{AddCells: []AddCell{{Name: "x", W: 0, H: 1}}},
		{AddCells: []AddCell{{Name: "x", W: 1, H: 1, Nets: []string{"nope"}}}},
		{RemoveCells: []string{"no-such-cell"}},
		{ReweightNets: []Reweight{{NetID: 1 << 30, Weight: 2}}},
		{ReweightNets: []Reweight{{NetID: 0, Weight: -1}}},
		{BlockRegions: []Block{{Lx: -1e9, Ly: -1e9, Hx: -1e8, Hy: -1e8}}},
	} {
		if _, err := Apply(testDesign(t), s); err == nil {
			t.Errorf("script %+v accepted", s)
		}
	}
}

func TestLoadScriptRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edits.json")
	if err := os.WriteFile(path, []byte(`{"add_cellz": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScript(path); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := os.WriteFile(path, []byte(`{"reweight_nets": [{"net_id": 3, "weight": 2.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScript(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ReweightNets) != 1 || s.ReweightNets[0].NetID != 3 {
		t.Fatalf("script = %+v", s)
	}
}

// TestChangeRecord checks the cells and nets Apply reports for each kind
// of edit against the ones read off the unedited design.
func TestChangeRecord(t *testing.T) {
	d := testDesign(t)
	n := len(d.Cells) // the index the first new cell gets
	victim := d.MovableOf(netlist.StdCell)[0]
	var victimNets []int
	for _, pi := range d.Cells[victim].Pins {
		victimNets = append(victimNets, d.Pins[pi].Net)
	}
	// members lists the cells on the given nets plus extra, ascending.
	members := func(nets []int, extra ...int) []int {
		for _, ni := range nets {
			for _, pi := range d.Nets[ni].Pins {
				extra = append(extra, d.Pins[pi].Cell)
			}
		}
		return sortedUnique(extra)
	}
	r := d.Region
	for _, tc := range []struct {
		name      string
		script    *Script
		wantCells []int
		wantNets  []int
	}{
		{"reweight", &Script{ReweightNets: []Reweight{{NetID: 4, Weight: 3}}},
			members([]int{4}), []int{4}},
		{"reweight to the current weight", &Script{ReweightNets: []Reweight{{NetID: 4, Weight: d.Nets[4].EffWeight()}}},
			nil, nil},
		{"reweight and back", &Script{ReweightNets: []Reweight{{NetID: 4, Weight: 3}, {NetID: 4, Weight: d.Nets[4].EffWeight()}}},
			nil, nil},
		{"removal", &Script{RemoveCells: []string{d.Cells[victim].Name}},
			members(victimNets, victim), sortedUnique(victimNets)},
		{"insertion", &Script{AddCells: []AddCell{{Name: "eco_new", W: 2, H: 2, NetIDs: []int{5, 6}}}},
			members([]int{5, 6}, n), []int{5, 6}},
		{"blockage", &Script{BlockRegions: []Block{{Lx: r.Lx, Ly: r.Ly, Hx: r.Lx + 10, Hy: r.Ly + 10}}},
			[]int{n}, nil},
		{"empty", &Script{}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := Apply(d.Clone(), tc.script)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ch.Cells, tc.wantCells) {
				t.Errorf("cells = %v, want %v", ch.Cells, tc.wantCells)
			}
			if !reflect.DeepEqual(ch.Nets, tc.wantNets) {
				t.Errorf("nets = %v, want %v", ch.Nets, tc.wantNets)
			}
		})
	}
}

func sortedUnique(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

func TestBuildPlanFreezeSplit(t *testing.T) {
	d := testDesign(t)

	// Empty change: everything movable frozen, nothing active.
	p := buildPlan(d, nil, nil)
	if len(p.Active) != 0 || len(p.Seeds) != 0 {
		t.Fatalf("no-op plan = %+v", p)
	}
	if len(p.Frozen) != len(d.Movable()) {
		t.Fatalf("frozen %d, want all %d movable", len(p.Frozen), len(d.Movable()))
	}

	// A single changed cell activates itself plus a local halo, not the
	// whole design, and active/frozen partition the movables.
	seed := d.MovableOf(netlist.StdCell)[10]
	p = buildPlan(d, []int{seed}, []int{seed})
	if len(p.Active) == 0 {
		t.Fatal("seeded plan has no active cells")
	}
	mov := len(d.Movable())
	if len(p.Active)+len(p.Frozen) != mov {
		t.Fatalf("active %d + frozen %d != movable %d", len(p.Active), len(p.Frozen), mov)
	}
	if len(p.Active) >= mov/2 {
		t.Fatalf("plan activated %d of %d movables; not local", len(p.Active), mov)
	}
	found := false
	for _, ci := range p.Active {
		if ci == seed {
			found = true
		}
	}
	if !found {
		t.Fatal("seed cell not active")
	}
}

// TestBuildPlanEvicted pins Evicted to the halo rule: an active cell
// that is not fresh is evicted exactly when its slot overlaps a new fixed
// footprint grown by half its span, and edits that place no fixed
// footprint evict nothing.
func TestBuildPlanEvicted(t *testing.T) {
	d := testDesign(t)
	r := d.Region
	blk := Block{Lx: r.Lx + 0.4*r.W(), Ly: r.Ly + 0.4*r.H(), Hx: r.Lx + 0.55*r.W(), Hy: r.Ly + 0.5*r.H()}
	br := blk.rect()
	c := br.Center()
	grow := 0.5 * math.Sqrt(br.W()*br.H())
	// Two cells of the reweighted net, so active, sit right of the block:
	// one overlaps the halo by 0.01, the other clears it by 0.01.
	var edge []int
	for _, pi := range d.Nets[3].Pins {
		if ci := d.Pins[pi].Cell; len(edge) < 2 && ci >= 0 && !d.Cells[ci].Fixed && d.Cells[ci].Kind == netlist.StdCell {
			edge = append(edge, ci)
		}
	}
	if len(edge) < 2 {
		t.Fatalf("net 3 has %d movable standard cells, want 2", len(edge))
	}
	for k, ci := range edge {
		cell := &d.Cells[ci]
		cell.X, cell.Y = br.Hx+grow+cell.W/2+[]float64{-0.01, 0.01}[k], c.Y
	}
	// The inserted cell sits on the block: fresh, active and in the halo,
	// but it never had a slot to lose.
	prep, err := Prepare(d.Clone(), &Script{
		BlockRegions: []Block{blk},
		AddCells:     []AddCell{{Name: "eco_new", W: 2, H: 2, NetIDs: []int{0, 1}, X: c.X, Y: c.Y}},
		ReweightNets: []Reweight{{NetID: 3, Weight: 4}},
	}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := prep.Plan
	fresh := map[int]bool{}
	for _, ci := range p.Fresh {
		fresh[ci] = true
	}
	var want []int
	held := 0
	for _, ci := range p.Active {
		if fresh[ci] {
			continue
		}
		cell := &d.Cells[ci]
		ox := math.Min(cell.X+cell.W/2, br.Hx+grow) - math.Max(cell.X-cell.W/2, br.Lx-grow)
		oy := math.Min(cell.Y+cell.H/2, br.Hy+grow) - math.Max(cell.Y-cell.H/2, br.Ly-grow)
		if ox > 1e-9 && oy > 1e-9 {
			want = append(want, ci)
		} else {
			held++
		}
	}
	if len(want) == 0 || held == 0 {
		t.Fatalf("%d evicted and %d held of %d active: the edit does not exercise the rule", len(want), held, len(p.Active))
	}
	if !reflect.DeepEqual(p.Evicted, want) {
		t.Errorf("Evicted = %v, want %v", p.Evicted, want)
	}
	if !slices.Contains(p.Evicted, edge[0]) || slices.Contains(p.Evicted, edge[1]) {
		t.Errorf("Evicted = %v: want cell %d (in the halo) and not cell %d (outside it)", p.Evicted, edge[0], edge[1])
	}

	victim := d.Cells[d.MovableOf(netlist.StdCell)[0]].Name
	for _, s := range []*Script{
		{ReweightNets: []Reweight{{NetID: 3, Weight: 4}}},
		{RemoveCells: []string{victim}},
		{AddCells: []AddCell{{Name: "eco_new", W: 2, H: 2, NetIDs: []int{0, 1}, X: c.X, Y: c.Y}}},
	} {
		prep, err := Prepare(d.Clone(), s, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if p := prep.Plan; len(p.Active) == 0 || len(p.Evicted) != 0 {
			t.Errorf("script %+v: %d active, evicted %v, want some active and none evicted", s, len(p.Active), p.Evicted)
		}
	}
}

func TestPrepareNoOp(t *testing.T) {
	d := testDesign(t)
	mov := len(d.Movable())
	for _, s := range []*Script{
		{},
		// Reweighting to the current effective weight is also a no-op.
		{ReweightNets: []Reweight{{NetID: 0, Weight: d.Nets[0].EffWeight()}}},
	} {
		prep, err := Prepare(d, s, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ch := prep.Change; len(ch.Cells) != 0 || len(ch.Nets) != 0 {
			t.Fatalf("script %+v changed %v cells and %v nets", s, ch.Cells, ch.Nets)
		}
		if p := prep.Plan; len(p.Seeds) != 0 || len(p.Active) != 0 || len(p.Frozen) != mov {
			t.Fatalf("script %+v produced work: %s", s, p)
		}
	}
}

// ins5 is an insertion of 5% of the standard cells, the benchmark's ins5
// edit: each new cell spliced into two nets of a random existing cell.
func ins5(d *netlist.Design) *Script {
	std := d.MovableOf(netlist.StdCell)
	rng := rand.New(rand.NewSource(7))
	s := &Script{}
	for i := range len(std) / 20 {
		var nets []int
		for _, pi := range d.Cells[std[rng.Intn(len(std))]].Pins {
			if ni := d.Pins[pi].Net; len(nets) < 2 && (len(nets) == 0 || nets[0] != ni) {
				nets = append(nets, ni)
			}
		}
		s.AddCells = append(s.AddCells, AddCell{Name: fmt.Sprintf("eco_ins_%d", i), W: 1, H: 1, NetIDs: nets})
	}
	return s
}

// TestApplyGrowsPinListsOnce bounds Apply's allocations on an
// ins5-sized script: each net an added cell joins grows its pin list
// once, and each added cell's pin list is made once at its final size,
// so the count stays below one allocation per added cell and per
// touched net plus a constant (a grow per pin would double it). The
// lists must end as a Connect per pin, in script order, leaves them.
func TestApplyGrowsPinListsOnce(t *testing.T) {
	base := synth.Generate(synth.Spec{Name: "eco-ins5", NumCells: 5000, Seed: 3})
	s := ins5(base)
	touched := map[int]bool{}
	for _, a := range s.AddCells {
		for _, ni := range a.NetIDs {
			touched[ni] = true
		}
	}

	want := base.Clone()
	for _, a := range s.AddCells {
		ci := want.AddCell(netlist.Cell{Name: a.Name, W: a.W, H: a.H, Kind: netlist.StdCell})
		for _, ni := range a.NetIDs {
			want.Connect(ci, ni, 0, 0)
		}
	}
	got := base.Clone()
	if _, err := Apply(got, s); err != nil {
		t.Fatal(err)
	}
	for ni := range want.Nets {
		if !slices.Equal(got.Nets[ni].Pins, want.Nets[ni].Pins) {
			t.Fatalf("net %d pins %v, want %v", ni, got.Nets[ni].Pins, want.Nets[ni].Pins)
		}
	}
	for ci := range want.Cells {
		if !slices.Equal(got.Cells[ci].Pins, want.Cells[ci].Pins) {
			t.Fatalf("cell %d pins %v, want %v", ci, got.Cells[ci].Pins, want.Cells[ci].Pins)
		}
	}
	if !slices.Equal(got.Pins, want.Pins) {
		t.Fatal("pin records differ from a Connect per pin")
	}

	clone := testing.AllocsPerRun(5, func() { base.Clone() })
	apply := testing.AllocsPerRun(5, func() {
		if _, err := Apply(base.Clone(), s); err != nil {
			t.Fatal(err)
		}
	})
	n, limit := apply-clone, float64(len(s.AddCells)+len(touched)+64)
	t.Logf("Apply of %d cells on %d nets: %v allocations", len(s.AddCells), len(touched), n)
	if n > limit {
		t.Errorf("Apply allocates %v times for %d added cells on %d nets, want at most %v", n, len(s.AddCells), len(touched), limit)
	}
}
