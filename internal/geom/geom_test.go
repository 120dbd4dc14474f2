package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// rectWH builds a rectangle from a lower-left corner and a size.
func rectWH(lx, ly, w, h float64) Rect {
	return Rect{Lx: lx, Ly: ly, Hx: lx + w, Hy: ly + h}
}

func TestRectConstructors(t *testing.T) {
	r := rectWH(1, 2, 3, 4)
	c := NewRectCenter(0, 0, 2, 4)
	if c != (Rect{-1, -2, 1, 2}) {
		t.Fatalf("NewRectCenter = %v", c)
	}
	if !almostEq(r.W(), 3) || !almostEq(r.H(), 4) || !almostEq(r.Area(), 12) {
		t.Errorf("W/H/Area = %v %v %v", r.W(), r.H(), r.Area())
	}
	if ctr := r.Center(); !almostEq(ctr.X, 2.5) || !almostEq(ctr.Y, 4) {
		t.Errorf("Center = %v", ctr)
	}
}

func TestRectDegenerate(t *testing.T) {
	r := Rect{0, 0, 0, 5}
	if !r.Valid() {
		t.Error("zero-width rect should be valid")
	}
	if !r.Empty() {
		t.Error("zero-width rect should be empty")
	}
	if r.Area() != 0 {
		t.Errorf("Area = %v, want 0", r.Area())
	}
	bad := Rect{1, 0, 0, 5}
	if bad.Valid() {
		t.Error("inverted rect should be invalid")
	}
}

func TestContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // closed on low edges
		{Point{10, 5}, false}, // open on high edges
		{Point{5, 10}, false},
		{Point{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !r.ContainsRect(Rect{0, 0, 10, 10}) {
		t.Error("rect should contain itself")
	}
	if r.ContainsRect(Rect{5, 5, 11, 6}) {
		t.Error("rect should not contain an overhanging rect")
	}
}

func TestOverlapCases(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{2, 2, 6, 6}, 4},   // corner overlap
		{Rect{4, 0, 8, 4}, 0},   // edge-touching
		{Rect{5, 5, 6, 6}, 0},   // disjoint
		{Rect{1, 1, 3, 3}, 4},   // contained
		{Rect{0, 0, 4, 4}, 16},  // identical
		{Rect{-2, 1, 2, 2}, 2},  // partial
		{Rect{-5, -5, 0, 0}, 0}, // corner-touching
	}
	for _, c := range cases {
		if got := a.Overlap(c.b); !almostEq(got, c.want) {
			t.Errorf("Overlap(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := a.Intersects(c.b); got != (c.want > 0) {
			t.Errorf("Intersects(%v, %v) = %v", a, c.b, got)
		}
	}
}

func TestIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 1, 6, 3}
	i := a.Intersect(b)
	if i != (Rect{2, 1, 4, 3}) {
		t.Errorf("Intersect = %v", i)
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 6, 4}) {
		t.Errorf("Union = %v", u)
	}
	// Disjoint intersection is degenerate but valid.
	d := a.Intersect(Rect{10, 10, 12, 12})
	if !d.Valid() || !d.Empty() {
		t.Errorf("disjoint Intersect = %v, want valid empty", d)
	}
}

func TestTranslateExpand(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if got := r.translate(1, -1); got != (Rect{1, -1, 3, 1}) {
		t.Errorf("translate = %v", got)
	}
	if got := r.Expand(1); got != (Rect{-1, -1, 3, 3}) {
		t.Errorf("Expand = %v", got)
	}
	if got := r.Expand(-0.5); got != (Rect{0.5, 0.5, 1.5, 1.5}) {
		t.Errorf("shrink = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp basic cases failed")
	}
	region := Rect{0, 0, 100, 50}
	p := ClampPoint(Point{-10, 60}, 10, 6, region)
	if p != (Point{5, 47}) {
		t.Errorf("ClampPoint = %v", p)
	}
	// Already inside: unchanged.
	q := ClampPoint(Point{50, 25}, 10, 6, region)
	if q != (Point{50, 25}) {
		t.Errorf("ClampPoint inside = %v", q)
	}
}

func TestClampRectInside(t *testing.T) {
	region := Rect{0, 0, 100, 100}
	r := ClampRectInside(Rect{-5, 95, 5, 105}, region)
	if r != (Rect{0, 90, 10, 100}) {
		t.Errorf("ClampRectInside = %v", r)
	}
	// Inside already: unchanged.
	in := Rect{10, 10, 20, 20}
	if got := ClampRectInside(in, region); got != in {
		t.Errorf("ClampRectInside inside = %v", got)
	}
}

// Property: overlap is symmetric and bounded by both areas.
func TestOverlapPropertySymmetric(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := rectWH(mod(ax, 100), mod(ay, 100), mod(aw, 50), mod(ah, 50))
		b := rectWH(mod(bx, 100), mod(by, 100), mod(bw, 50), mod(bh, 50))
		o1, o2 := a.Overlap(b), b.Overlap(a)
		if !almostEq(o1, o2) {
			return false
		}
		return o1 <= a.Area()+1e-9 && o1 <= b.Area()+1e-9 && o1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect area equals Overlap.
func TestIntersectAreaMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := rectWH(rng.Float64()*100, rng.Float64()*100, rng.Float64()*50, rng.Float64()*50)
		b := rectWH(rng.Float64()*100, rng.Float64()*100, rng.Float64()*50, rng.Float64()*50)
		if got, want := a.Intersect(b).Area(), a.Overlap(b); !almostEq(got, want) {
			t.Fatalf("Intersect.Area=%v Overlap=%v for %v %v", got, want, a, b)
		}
	}
}

// Property: union contains both operands; intersect is contained in both.
func TestUnionIntersectContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		a := rectWH(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*40, rng.Float64()*40)
		b := rectWH(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*40, rng.Float64()*40)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", u, a, b)
		}
		x := a.Intersect(b)
		if !x.Empty() && (!a.ContainsRect(x) || !b.ContainsRect(x)) {
			t.Fatalf("intersect %v not contained in %v and %v", x, a, b)
		}
	}
}

// Property: ClampPoint always produces an in-region placement when the
// object fits.
func TestClampPointProperty(t *testing.T) {
	region := Rect{0, 0, 100, 80}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		w := rng.Float64() * 90
		h := rng.Float64() * 70
		p := Point{rng.Float64()*400 - 200, rng.Float64()*400 - 200}
		c := ClampPoint(p, w, h, region)
		r := NewRectCenter(c.X, c.Y, w, h)
		if r.Lx < region.Lx-1e-9 || r.Hx > region.Hx+1e-9 || r.Ly < region.Ly-1e-9 || r.Hy > region.Hy+1e-9 {
			t.Fatalf("clamped rect %v escapes region (w=%v h=%v p=%v)", r, w, h, p)
		}
	}
}

func mod(x, m float64) float64 {
	x = math.Mod(math.Abs(x), m)
	if math.IsNaN(x) {
		return 0
	}
	return x
}
