package synth

import (
	"math"
	"testing"
	"time"

	"eplace/internal/netlist"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Name: "X", NumCells: 500})
	b := Generate(Spec{Name: "X", NumCells: 500})
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Pins) != len(b.Pins) {
		t.Fatal("same spec produced different structure")
	}
	for i := range a.Cells {
		if a.Cells[i].X != b.Cells[i].X || a.Cells[i].W != b.Cells[i].W {
			t.Fatalf("cell %d differs", i)
		}
	}
	c := Generate(Spec{Name: "Y", NumCells: 500})
	if c.HPWL() == a.HPWL() {
		t.Error("different names produced identical circuits")
	}
}

func TestGenerateValid(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "plain", NumCells: 300},
		{Name: "mms", NumCells: 300, NumMovableMacros: 5},
		{Name: "ispd", NumCells: 300, NumFixedMacros: 6, TargetDensity: 0.8},
	} {
		d := Generate(spec)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestUtilizationNearSpec(t *testing.T) {
	d := Generate(Spec{Name: "u", NumCells: 2000, Utilization: 0.7})
	if u := d.Stats().Utilization; math.Abs(u-0.7) > 0.05 {
		t.Errorf("utilization = %v, want ~0.7", u)
	}
	d = Generate(Spec{Name: "u2", NumCells: 2000, NumFixedMacros: 8, Utilization: 0.5})
	if u := d.Stats().Utilization; math.Abs(u-0.5) > 0.07 {
		t.Errorf("utilization with fixed = %v, want ~0.5", u)
	}
}

func TestMacroAreaFraction(t *testing.T) {
	d := Generate(Spec{Name: "m", NumCells: 2000, NumMovableMacros: 10, MacroAreaFrac: 0.3})
	var macroA, cellA float64
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		switch c.Kind {
		case netlist.Macro:
			macroA += c.Area()
		case netlist.StdCell:
			cellA += c.Area()
		}
	}
	frac := macroA / (macroA + cellA)
	if math.Abs(frac-0.3) > 0.1 {
		t.Errorf("macro area fraction = %v, want ~0.3", frac)
	}
}

func TestFixedMacrosDoNotOverlap(t *testing.T) {
	d := Generate(Spec{Name: "f", NumCells: 1000, NumFixedMacros: 12})
	var fixed []int
	for i := range d.Cells {
		if d.Cells[i].Fixed && d.Cells[i].Kind == netlist.Macro {
			fixed = append(fixed, i)
		}
	}
	if len(fixed) != 12 {
		t.Fatalf("fixed macros = %d", len(fixed))
	}
	for i := 0; i < len(fixed); i++ {
		ri := d.Cells[fixed[i]].Rect()
		if !d.Region.ContainsRect(ri) {
			t.Errorf("fixed macro %d outside region", i)
		}
		for j := i + 1; j < len(fixed); j++ {
			if ov := ri.Overlap(d.Cells[fixed[j]].Rect()); ov > 1e-9 {
				t.Errorf("fixed macros %d, %d overlap by %v", i, j, ov)
			}
		}
	}
}

func TestNetDegreeDistribution(t *testing.T) {
	d := Generate(Spec{Name: "deg", NumCells: 3000})
	h := map[int]int{} // net degree -> count
	for ni := range d.Nets {
		h[len(d.Nets[ni].Pins)]++
	}
	total, twoPin := 0, 0
	for deg, cnt := range h {
		if deg < 2 {
			t.Errorf("%d nets of degree %d", cnt, deg)
		}
		total += cnt
		if deg == 2 {
			twoPin += cnt
		}
	}
	frac := float64(twoPin) / float64(total)
	if frac < 0.35 || frac > 0.85 {
		t.Errorf("two-pin fraction = %v, want heavy-two-pin distribution", frac)
	}
	// Average pins per net in the realistic 2-5 range.
	if avg := float64(len(d.Pins)) / float64(total); avg < 2 || avg > 5 {
		t.Errorf("average net degree = %v", avg)
	}
}

func TestRowsCoverRegion(t *testing.T) {
	d := Generate(Spec{Name: "rows", NumCells: 500})
	if len(d.Rows) == 0 {
		t.Fatal("no rows")
	}
	top := d.Rows[len(d.Rows)-1]
	if top.Y+top.Height > d.Region.Hy+1e-9 {
		t.Error("rows exceed region")
	}
	if top.Y+top.Height < d.Region.Hy-d.Rows[0].Height {
		t.Error("rows do not cover region")
	}
}

func TestPadsOnBoundary(t *testing.T) {
	d := Generate(Spec{Name: "pads", NumCells: 200, NumPads: 16})
	count := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Kind != netlist.Pad {
			continue
		}
		count++
		nearEdge := c.X < 1 || c.X > d.Region.Hx-1 || c.Y < 1 || c.Y > d.Region.Hy-1
		if !nearEdge {
			t.Errorf("pad %d at (%v, %v) not on boundary", i, c.X, c.Y)
		}
		if !c.Fixed {
			t.Errorf("pad %d not fixed", i)
		}
	}
	if count != 16 {
		t.Errorf("pads = %d, want 16", count)
	}
}

func TestSuites(t *testing.T) {
	if got := len(ISPD05Suite(1)); got != 8 {
		t.Errorf("ISPD05 suite size = %d", got)
	}
	if got := len(ISPD06Suite(1)); got != 8 {
		t.Errorf("ISPD06 suite size = %d", got)
	}
	if got := len(MMSSuite(1)); got != 16 {
		t.Errorf("MMS suite size = %d", got)
	}
	for _, s := range ISPD06Suite(1) {
		if s.TargetDensity >= 1.0 {
			t.Errorf("%s: ISPD06 target density %v", s.Name, s.TargetDensity)
		}
	}
	for _, s := range MMSSuite(1) {
		if s.NumMovableMacros == 0 {
			t.Errorf("%s: MMS circuit without movable macros", s.Name)
		}
	}
	// Scaling works.
	small := ISPD05Suite(0.1)
	if small[0].NumCells != 211 {
		t.Errorf("scaled cell count = %d", small[0].NumCells)
	}
	// Suite circuits generate cleanly.
	d := Generate(MMSSuite(0.2)[0])
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Spec{Name: "bench", NumCells: 10000, NumMovableMacros: 10})
	}
}

func BenchmarkGenerate200k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Spec{Name: "bench200k", NumCells: 200000, NumMovableMacros: 20})
	}
}

// TestGenerateNearLinear guards the generator's scaling: building 16x
// the cells must cost well under the ~256x a quadratic construction
// would. Wall-clock ratios on loaded CI machines are noisy, so the
// bound is generous (64x, i.e. O(n^1.5)) — a reintroduced quadratic
// scan (per-net maps, pairwise overlap checks) blows past it by an
// order of magnitude.
func TestGenerateNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	run := func(n int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			Generate(Spec{Name: "lin", NumCells: n, Seed: 1})
			if el := time.Since(t0); el < best {
				best = el
			}
		}
		return best
	}
	run(4000) // warm-up
	small := run(12500)
	big := run(200000)
	if ratio := float64(big) / float64(small); ratio > 64 {
		t.Errorf("Generate(200000) / Generate(12500) = %.1fx, want near-linear (<= 64x); small=%v big=%v",
			ratio, small, big)
	}
}
