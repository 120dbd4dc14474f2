package nonlinear

import (
	"fmt"
	"slices"

	"eplace/internal/core"
	"eplace/internal/density"
	"eplace/internal/netlist"
	"eplace/internal/wirelength"
)

// fftplMaxTrials bounds FFTPL's line searches: every trial costs a
// Poisson solve.
const fftplMaxTrials = 10

// PlaceFFTPL runs FFTPL over the movable cells idx: after the quadratic
// start, fillers take the whitespace (core.InsertFillers), and the
// shared CG loop minimizes WA wirelength plus eDensity over the cells
// and fillers, which live in the loop's compiled view alone; the
// reported overflow counts the real cells only. It errors on a grid size
// the Poisson solver rejects.
func PlaceFFTPL(d *netlist.Design, idx []int, opt Options) (Result, error) {
	opt.defaults()
	if len(idx) == 0 {
		return Result{HPWL: d.HPWL()}, nil
	}
	m, gamma := seed(d, idx, opt)
	cv := d.Compile()
	all := append(slices.Clip(idx), core.InsertFillers(cv, 1)...)
	dm, err := density.NewModel(cv, d.Region, nil, m, opt.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("nonlinear: FFTPL density model: %w", err)
	}
	obj := &eDensity{idx: all, dm: dm, gd: make([]float64, 2*len(all))}
	return place(cv, all, opt, "FFTPL", m, fftplMaxTrials, wirelength.WA, gamma, obj), nil
}

// eDensity is ePlace's electrostatic density (internal/density) as a
// term of the shared loop.
type eDensity struct {
	idx []int
	dm  *density.Model
	gd  []float64 // density gradient scratch
}

func (e *eDensity) penalty(lam float64, grad []float64) float64 {
	e.dm.Refresh(e.idx)
	if grad != nil {
		e.dm.Gradient(e.idx, e.gd)
		for i, g := range e.gd {
			grad[i] += lam * g
		}
	}
	return e.dm.Energy()
}

func (e *eDensity) overflow(rhoT float64) float64 {
	e.dm.Refresh(e.idx)
	return e.dm.Overflow(rhoT)
}
