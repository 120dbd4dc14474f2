package viz

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

func TestWritePGMHeader(t *testing.T) {
	grid := make([]float64, 16)
	for i := range grid {
		grid[i] = float64(i)
	}
	var buf bytes.Buffer
	if err := writePGM(&buf, grid, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n4 4\n255\n")) {
		t.Fatalf("bad header: %q", out[:12])
	}
	if len(out) != len("P5\n4 4\n255\n")+16 {
		t.Errorf("payload size = %d", len(out)-len("P5\n4 4\n255\n"))
	}
	// Max value maps to 255, min to 0; row order flipped: grid[15] (top
	// right) is the first row's last byte.
	payload := out[len("P5\n4 4\n255\n"):]
	if payload[3] != 255 {
		t.Errorf("top-right byte = %d, want 255", payload[3])
	}
	if payload[12] != 0 {
		t.Errorf("bottom-left byte = %d, want 0", payload[12])
	}
}

func TestWritePGMConstantGrid(t *testing.T) {
	grid := make([]float64, 16)
	var buf bytes.Buffer
	if err := writePGM(&buf, grid, 4); err != nil {
		t.Fatal(err)
	}
}

func TestWritePGMSizeMismatch(t *testing.T) {
	if err := writePGM(&bytes.Buffer{}, make([]float64, 10), 4); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestSavePGM(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pgm")
	if err := SavePGM(path, make([]float64, 64), 8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P5\n")) {
		t.Error("file is not a PGM")
	}
}

func TestRasterizeLayout(t *testing.T) {
	d := netlist.New("v", geom.Rect{Hx: 32, Hy: 32})
	d.AddCell(netlist.Cell{W: 8, H: 8, X: 4, Y: 4})                                     // bottom-left cell
	d.AddCell(netlist.Cell{W: 8, H: 8, X: 28, Y: 28, Kind: netlist.Macro, Fixed: true}) // top-right macro
	grid := RasterizeLayout(d, 8)
	if grid[0] <= 0 {
		t.Error("bottom-left bin empty")
	}
	if grid[7*8+7] != 1 {
		t.Errorf("macro bin = %v, want 1", grid[7*8+7])
	}
	if grid[4*8+4] != 0 {
		t.Errorf("center bin = %v, want 0", grid[4*8+4])
	}
}
