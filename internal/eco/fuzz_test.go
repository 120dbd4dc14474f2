package eco

import (
	"os"
	"path/filepath"
	"testing"

	"eplace/internal/synth"
)

// FuzzApply decodes arbitrary bytes the way LoadScript does and applies
// the script to a clone of a small synthetic design. Apply may reject a
// script with an error, but it must never panic; an accepted script
// leaves a valid design and a change record whose cells are ascending,
// unique and in range; and the empty script changes nothing.
func FuzzApply(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "digests", "eco_edits.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(`{
  "add_cells":     [{"name": "buf17", "w": 2, "h": 2, "net_ids": [104, 871]}],
  "remove_cells":  ["old_inv3"],
  "reweight_nets": [{"net_id": 42, "weight": 4}],
  "block_regions": [{"lx": 30, "ly": 55, "hx": 70, "hy": 85}]
}`))
	f.Add([]byte(`{"remove_cells": ["o5", "o7"], "reweight_nets": [{"net_id": 3, "weight": 2}, {"net_id": 3, "weight": 1}]}`))
	f.Add([]byte(`{}`))

	base := synth.Generate(synth.Spec{Name: "eco-fuzz", NumCells: 1000, Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseScript(data)
		if err != nil {
			return
		}
		d := base.Clone()
		ch, err := Apply(d, s)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted script left an invalid design: %v", err)
		}
		for k, ci := range ch.Cells {
			if ci < 0 || ci >= len(d.Cells) || k > 0 && ci <= ch.Cells[k-1] {
				t.Fatalf("changed cells %v are not ascending, unique and in [0,%d)", ch.Cells, len(d.Cells))
			}
		}
		empty := len(s.AddCells) == 0 && len(s.RemoveCells) == 0 && len(s.ReweightNets) == 0 && len(s.BlockRegions) == 0
		if empty && (len(ch.Cells) != 0 || len(ch.Nets) != 0 || len(d.Cells) != len(base.Cells)) {
			t.Fatalf("empty script changed %d cells and %d nets", len(ch.Cells), len(ch.Nets))
		}
	})
}
