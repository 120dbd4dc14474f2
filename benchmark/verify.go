package main

import (
	"fmt"
	"math"

	"eplace/internal/legalize"
	"eplace/internal/netlist"
)

// verifyLayout is the benchmark's own check of a finished layout; it
// trusts nothing the flow reported. macros are the movable macros as
// listed before placement (the flow pins them once legalized).
func verifyLayout(d *netlist.Design, macros []int, reportedHPWL float64) error {
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed && c.Kind != netlist.Macro {
			continue
		}
		if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
			return fmt.Errorf("cell %d (%s) at non-finite position (%v, %v)", i, c.Name, c.X, c.Y)
		}
		if c.Kind == netlist.Filler {
			return fmt.Errorf("filler cell %d left in the finished design", i)
		}
		if !c.Fixed && !d.Region.ContainsRect(c.Rect().Expand(-1e-9)) {
			return fmt.Errorf("cell %d (%s) outside region: %v", i, c.Name, c.Rect())
		}
	}
	if err := legalize.CheckLegal(d, d.MovableOf(netlist.StdCell)); err != nil {
		return err
	}
	if err := legalize.CheckMacrosLegal(d, macros); err != nil {
		return err
	}
	if got := d.HPWL(); got != reportedHPWL {
		return fmt.Errorf("reported HPWL %v, recomputed %v", reportedHPWL, got)
	}
	return nil
}

// verifyFrozen checks that the cells an ECO plan froze sit bit for bit
// where they were before the incremental placement.
func verifyFrozen(d *netlist.Design, frozen []int, before []float64) error {
	after := d.Positions(frozen)
	for k := range after {
		if after[k] != before[k] {
			ci := frozen[k%len(frozen)]
			return fmt.Errorf("frozen cell %d (%s) moved", ci, d.Cells[ci].Name)
		}
	}
	return nil
}

// digestLedger holds the first final digest seen for each (design,
// edit) of a run; every later repetition, at any worker count and with
// or without telemetry, must reproduce it.
type digestLedger map[string]string

func (l digestLedger) check(key, digest string) error {
	if digest == "" {
		return fmt.Errorf("no final digest reported")
	}
	if first, ok := l[key]; !ok {
		l[key] = digest
	} else if first != digest {
		return fmt.Errorf("final digest %s differs from the first repetition's %s", digest, first)
	}
	return nil
}
