// backend.go keeps the solver-name arguments the benchmark module still
// passes, although there is one solver: core.Options.Poisson,
// density.NewModelCompiled's kind and NewBackend's. ValidateKind is their
// one check. Everything here goes in the next benchmark change, together
// with eco.PlanOptions.
package poisson

import "fmt"

// ValidateKind accepts the solver names a caller may still pass, "" and
// KindSpectral32, and rejects any other. Every entry point that takes a
// name checks it here before it places anything.
func ValidateKind(kind string) error {
	if kind != "" && kind != KindSpectral32 {
		return fmt.Errorf("poisson: backend %q is not offered; %q is the only Poisson solver", kind, KindSpectral32)
	}
	return nil
}

// NewBackend is NewSolver32Workers behind ValidateKind, for the
// benchmark's solve probe and density.NewModelCompiled. It goes in the
// next benchmark change.
func NewBackend(kind string, m, workers int) (*Solver32, error) {
	if err := ValidateKind(kind); err != nil {
		return nil, err
	}
	return NewSolver32Workers(m, workers)
}
