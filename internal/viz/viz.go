// Package viz renders placement state as images: grayscale PGM heatmaps
// of scalar grids (density, potential) and PGM rasters of cell layouts
// (the data behind the paper's Figures 3, 5 and 6). PGM is chosen
// because it needs no image library and every viewer opens it.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"eplace/internal/netlist"
)

// writePGM writes an m x m scalar grid (row-major, row 0 at the bottom)
// as an 8-bit PGM image, auto-scaled to the data range. Values are
// flipped vertically so the image matches placement coordinates.
func writePGM(w io.Writer, grid []float64, m int) error {
	if len(grid) != m*m {
		return fmt.Errorf("viz: grid length %d, want %d", len(grid), m*m)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range grid {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", m, m)
	for j := m - 1; j >= 0; j-- {
		for i := 0; i < m; i++ {
			v := (grid[j*m+i] - lo) / span
			if err := bw.WriteByte(byte(v * 255)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SavePGM writes the grid to a file.
func SavePGM(path string, grid []float64, m int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writePGM(f, grid, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RasterizeLayout renders the design's cells into an m x m occupancy
// grid: standard cells and fillers accumulate area, macros and fixed
// cells are drawn at full intensity, giving the familiar placement
// snapshot look of Fig. 3.
func RasterizeLayout(d *netlist.Design, m int) []float64 {
	grid := make([]float64, m*m)
	binW := d.Region.W() / float64(m)
	binH := d.Region.H() / float64(m)
	binArea := binW * binH
	for i := range d.Cells {
		c := &d.Cells[i]
		r := c.Rect().Intersect(d.Region)
		if r.Empty() {
			continue
		}
		i0 := clamp(int((r.Lx-d.Region.Lx)/binW), 0, m-1)
		i1 := clamp(int(math.Ceil((r.Hx-d.Region.Lx)/binW)), 1, m)
		j0 := clamp(int((r.Ly-d.Region.Ly)/binH), 0, m-1)
		j1 := clamp(int(math.Ceil((r.Hy-d.Region.Ly)/binH)), 1, m)
		solid := c.Fixed || c.Kind == netlist.Macro
		for j := j0; j < j1; j++ {
			by := d.Region.Ly + float64(j)*binH
			oy := math.Min(r.Hy, by+binH) - math.Max(r.Ly, by)
			if oy <= 0 {
				continue
			}
			for i2 := i0; i2 < i1; i2++ {
				bx := d.Region.Lx + float64(i2)*binW
				ox := math.Min(r.Hx, bx+binW) - math.Max(r.Lx, bx)
				if ox <= 0 {
					continue
				}
				if solid {
					grid[j*m+i2] = math.Max(grid[j*m+i2], 1)
				} else {
					grid[j*m+i2] += ox * oy / binArea
				}
			}
		}
	}
	return grid
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
