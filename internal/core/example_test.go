package core_test

import (
	"fmt"

	"eplace/internal/core"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// Example runs the full mixed-size flow on a small synthetic circuit
// and checks the headline guarantees: a legal layout whose global
// placement converged below the 10% density-overflow target.
func Example() {
	d := synth.Generate(synth.Spec{
		Name:             "example",
		NumCells:         500,
		NumMovableMacros: 4,
	})
	res, err := core.Place(d, core.FlowOptions{
		GP: core.Options{GridM: 32, MaxIters: 800},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("legal:", res.Legal)
	fmt.Println("overflow below target:", res.MGP.Overflow <= 0.11)
	fmt.Println("macros legalized:", res.MLG.OmAfter == 0)
	// Output:
	// legal: true
	// overflow below target: true
	// macros legalized: true
}

// ExamplePlaceGlobal shows the standalone global placement engine: the
// caller controls filler insertion and reads the trace.
func ExamplePlaceGlobal() {
	d := synth.Generate(synth.Spec{Name: "gp-example", NumCells: 300})
	core.InsertFillers(d, 1)
	tr := &core.Trace{}
	res, _ := core.PlaceGlobal(d, d.Movable(), core.Options{
		GridM: 32, MaxIters: 600, Telemetry: telemetry.New(tr),
	}, "mGP", 0)
	fmt.Println("converged:", res.Overflow <= 0.11)
	fmt.Println("stop:", res.Stop)
	fmt.Println("traced every iteration:", len(tr.Samples) == res.Iterations)
	// Output:
	// converged: true
	// stop: target-overflow
	// traced every iteration: true
}
