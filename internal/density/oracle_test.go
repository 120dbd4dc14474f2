package density

import (
	"math"

	"eplace/internal/grid"
	"eplace/internal/netlist"
)

// forceOn is the pointer-based oracle for grid.FootprintForce: it
// rebuilds cell c's smoothed footprint from the struct geometry with its
// own copy of the smoothing arithmetic (the way Gradient worked before
// the grid owned the footprint) and integrates charge density * field
// over it, in grid units.
func forceOn(md *Model, c *netlist.Cell) (fx, fy float64) {
	g := md.Grid
	m := g.M
	r, scale := smoothedRect(g, c.X, c.Y, c.W, c.H)
	i0 := int(math.Floor((r.Lx - g.Region.Lx) / g.BinW))
	i1 := int(math.Ceil((r.Hx - g.Region.Lx) / g.BinW))
	j0 := int(math.Floor((r.Ly - g.Region.Ly) / g.BinH))
	j1 := int(math.Ceil((r.Hy - g.Region.Ly) / g.BinH))
	i0, j0 = max(i0, 0), max(j0, 0)
	i1, j1 = min(i1, m), min(j1, m)
	chargeScale := scale * md.binAreaInv
	for j := j0; j < j1; j++ {
		by0 := g.Region.Ly + float64(j)*g.BinH
		oy := min(r.Hy, by0+g.BinH) - max(r.Ly, by0)
		if oy <= 0 {
			continue
		}
		row := j * m
		for i := i0; i < i1; i++ {
			bx0 := g.Region.Lx + float64(i)*g.BinW
			ox := min(r.Hx, bx0+g.BinW) - max(r.Lx, bx0)
			if ox <= 0 {
				continue
			}
			q := ox * oy * chargeScale
			fx += q * md.ex[row+i]
			fy += q * md.ey[row+i]
		}
	}
	return fx, fy
}

type rectT struct{ Lx, Ly, Hx, Hy float64 }

// smoothedRect is the oracle's local smoothing: sub-bin objects inflate
// to sqrt(2) bins with charge preserved, clamped inside the region. At
// the clamp it assigns the region edge where geom.ClampRectInside (the
// rasterizer's) adds the translation to the old edge; the two agree
// exactly when the region origin is 0 and to the last bit otherwise.
func smoothedRect(g *grid.Grid, cx, cy, w, h float64) (r rectT, scale float64) {
	const inflate = math.Sqrt2
	ew, eh := w, h
	scale = 1.0
	if minW := inflate * g.BinW; ew < minW {
		scale *= ew / minW
		ew = minW
	}
	if minH := inflate * g.BinH; eh < minH {
		scale *= eh / minH
		eh = minH
	}
	lx := cx - ew/2
	ly := cy - eh/2
	hx := cx + ew/2
	hy := cy + eh/2
	if lx < g.Region.Lx {
		hx += g.Region.Lx - lx
		lx = g.Region.Lx
	} else if hx > g.Region.Hx {
		lx -= hx - g.Region.Hx
		hx = g.Region.Hx
	}
	if ly < g.Region.Ly {
		hy += g.Region.Ly - ly
		ly = g.Region.Ly
	} else if hy > g.Region.Hy {
		ly -= hy - g.Region.Hy
		hy = g.Region.Hy
	}
	return rectT{lx, ly, hx, hy}, scale
}
