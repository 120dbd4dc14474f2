// Mixed-size placement: the full mIP -> mGP -> mLG -> cGP -> cDP flow
// of Fig. 1 on an MMS-style circuit with movable macros, with a
// per-stage progress report (the data behind Figures 2 and 5).
//
//	go run ./examples/mixedsize
package main

import (
	"fmt"
	"log"

	"eplace/internal/core"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

func main() {
	// An MMS ADAPTEC1-style circuit: 2000 cells, 6 movable macros
	// holding ~25% of the movable area, fixed IO pads.
	d := synth.Generate(synth.Spec{
		Name:             "mms-demo",
		NumCells:         2000,
		NumMovableMacros: 6,
	})
	fmt.Printf("circuit: %s\n", d.Stats())

	trace := &core.Trace{}
	res, err := core.Place(d, core.FlowOptions{
		GP: core.Options{Telemetry: telemetry.New(trace)},
	})
	if err != nil {
		log.Fatalf("placement failed: %v", err)
	}

	fmt.Println("\nstage progression:")
	for _, stage := range []string{"mGP", "cGP-filler", "cGP"} {
		ss := trace.Stage(stage)
		if len(ss) == 0 {
			continue
		}
		first, last := ss[0], ss[len(ss)-1]
		fmt.Printf("  %-10s %4d iters   HPWL %10.0f -> %10.0f   tau %.3f -> %.3f\n",
			stage, len(ss), first.HPWL, last.HPWL, first.Overflow, last.Overflow)
	}
	fmt.Printf("  %-10s macro overlap %9.0f -> %9.0f (W overhead %+.1f%%)\n",
		"mLG", res.MLG.OmBefore, res.MLG.OmAfter,
		100*(res.MLG.WAfter/res.MLG.WBefore-1))

	fmt.Println("\nstage wall-clock:")
	for _, stage := range res.Stages {
		fmt.Printf("  %-5s %v\n", stage.Name, stage.Time.Round(1e6))
	}
	fmt.Printf("\nfinal: HPWL %.0f, legal=%v\n", res.HPWL, res.Legal)
}
