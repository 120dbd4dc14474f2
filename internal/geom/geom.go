// Package geom provides the small set of planar geometry primitives used
// throughout the placer: points, rectangles, overlap computation and
// clamping. All coordinates are float64 in the design's database units.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the placement plane.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle described by its lower-left (Lx, Ly)
// and upper-right (Hx, Hy) corners. A Rect is well formed when Lx <= Hx
// and Ly <= Hy; a degenerate Rect may have zero width or height.
type Rect struct {
	Lx, Ly, Hx, Hy float64
}

// NewRectCenter builds a rectangle of size w x h centered at (cx, cy).
func NewRectCenter(cx, cy, w, h float64) Rect {
	return Rect{Lx: cx - w/2, Ly: cy - h/2, Hx: cx + w/2, Hy: cy + h/2}
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.Hx - r.Lx }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Hy - r.Ly }

// Area returns the rectangle area; degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	if r.Hx <= r.Lx || r.Hy <= r.Ly {
		return 0
	}
	return (r.Hx - r.Lx) * (r.Hy - r.Ly)
}

// Center returns the rectangle center.
func (r Rect) Center() Point { return Point{(r.Lx + r.Hx) / 2, (r.Ly + r.Hy) / 2} }

// Valid reports whether r is well formed (non-negative extent).
func (r Rect) Valid() bool { return r.Lx <= r.Hx && r.Ly <= r.Hy }

// Empty reports whether r encloses zero area.
func (r Rect) Empty() bool { return r.Hx <= r.Lx || r.Hy <= r.Ly }

// Contains reports whether the point p lies inside r (closed on the low
// edges, open on the high edges, matching bin-membership semantics).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lx && p.X < r.Hx && p.Y >= r.Ly && p.Y < r.Hy
}

// ContainsRect reports whether q lies entirely inside r (closed test).
func (r Rect) ContainsRect(q Rect) bool {
	return q.Lx >= r.Lx && q.Hx <= r.Hx && q.Ly >= r.Ly && q.Hy <= r.Hy
}

// Intersect returns the intersection of r and q. The result may be
// degenerate (Empty) when the rectangles do not overlap.
func (r Rect) Intersect(q Rect) Rect {
	out := Rect{
		Lx: math.Max(r.Lx, q.Lx),
		Ly: math.Max(r.Ly, q.Ly),
		Hx: math.Min(r.Hx, q.Hx),
		Hy: math.Min(r.Hy, q.Hy),
	}
	if out.Hx < out.Lx {
		out.Hx = out.Lx
	}
	if out.Hy < out.Ly {
		out.Hy = out.Ly
	}
	return out
}

// Overlap returns the overlap area between r and q.
func (r Rect) Overlap(q Rect) float64 {
	w := math.Min(r.Hx, q.Hx) - math.Max(r.Lx, q.Lx)
	if w <= 0 {
		return 0
	}
	h := math.Min(r.Hy, q.Hy) - math.Max(r.Ly, q.Ly)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Intersects reports whether r and q overlap with positive area.
func (r Rect) Intersects(q Rect) bool {
	return r.Lx < q.Hx && q.Lx < r.Hx && r.Ly < q.Hy && q.Ly < r.Hy
}

// Union returns the bounding box of r and q.
func (r Rect) Union(q Rect) Rect {
	return Rect{
		Lx: math.Min(r.Lx, q.Lx),
		Ly: math.Min(r.Ly, q.Ly),
		Hx: math.Max(r.Hx, q.Hx),
		Hy: math.Max(r.Hy, q.Hy),
	}
}

// translate returns r shifted by (dx, dy).
func (r Rect) translate(dx, dy float64) Rect {
	return Rect{r.Lx + dx, r.Ly + dy, r.Hx + dx, r.Hy + dy}
}

// Expand returns r grown by d on every side (shrunk when d < 0).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.Lx - d, r.Ly - d, r.Hx + d, r.Hy + d}
}

// String formats the rectangle for debugging.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4g %.4g %.4g %.4g]", r.Lx, r.Ly, r.Hx, r.Hy)
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampPoint limits p so that a w x h rectangle whose center is the
// returned point fits entirely inside region.
func ClampPoint(p Point, w, h float64, region Rect) Point {
	return Point{
		X: Clamp(p.X, region.Lx+w/2, region.Hx-w/2),
		Y: Clamp(p.Y, region.Ly+h/2, region.Hy-h/2),
	}
}

// ClampRectInside returns r translated by the minimum amount needed to
// fit inside region. If r is larger than region along an axis it is
// aligned to the region's low edge on that axis.
func ClampRectInside(r, region Rect) Rect {
	dx, dy := 0.0, 0.0
	switch {
	case r.Lx < region.Lx:
		dx = region.Lx - r.Lx
	case r.Hx > region.Hx:
		dx = region.Hx - r.Hx
	}
	switch {
	case r.Ly < region.Ly:
		dy = region.Ly - r.Ly
	case r.Hy > region.Hy:
		dy = region.Hy - r.Hy
	}
	return r.translate(dx, dy)
}
