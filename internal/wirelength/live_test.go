package wirelength

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eplace/internal/geom"
	"eplace/internal/netlist"
	"eplace/internal/synth"
)

// allNetsReference is the evaluation the model ran before it priced its
// live nets only: every net of degree >= 2 through the same fused
// kernel, the pin derivatives in CSR-slot-sized buffers, and each model
// cell's gradient folded over those slots in ascending (net, pin) order.
// It returns every net's weighted cost (0 below degree 2) and, when grad
// is non-nil, writes the gradient.
func allNetsReference(m *Model, grad []float64) []float64 {
	cv := m.cv
	if m.ownView {
		cv.Sync()
	}
	maxDeg := 0
	for ni := range cv.NetW {
		maxDeg = max(maxDeg, int(cv.NetOff[ni+1]-cv.NetOff[ni]))
	}
	s := &netScratch{
		xs: make([]float64, maxDeg), ys: make([]float64, maxDeg),
		ep: make([]float64, maxDeg), em: make([]float64, maxDeg),
	}
	m.invGamma = 1 / m.Gamma
	m.grad = grad
	defer func() { m.grad = nil }()
	gx := make([]float64, cv.NumPinSlots())
	gy := make([]float64, cv.NumPinSlots())
	costs := make([]float64, len(cv.NetW))
	for ni := range cv.NetW {
		o0, o1 := cv.NetOff[ni], cv.NetOff[ni+1]
		if o1-o0 >= 2 {
			costs[ni] = m.netCost(ni, gx[o0:o1], gy[o0:o1], s)
		}
	}
	if grad == nil {
		return costs
	}
	n := len(m.idx)
	clear(grad)
	for ni := range cv.NetW {
		o0, o1 := cv.NetOff[ni], cv.NetOff[ni+1]
		if o1-o0 < 2 {
			continue
		}
		for sl := o0; sl < o1; sl++ {
			if ci := cv.PinCell[sl]; ci >= 0 && m.slot[ci] >= 0 {
				k := int(m.slot[ci])
				grad[k] += gx[sl]
				grad[k+n] += gy[sl]
			}
		}
	}
	return costs
}

// liveNetDesign builds a design with every kind of net the live-net rule
// has to sort: nets between movable cells, nets between fixed cells and
// pads only, degree-1 nets, zero-weight nets, nets with floating
// terminals, and nets with nothing but floating terminals; plus filler
// cells on no net. It returns the design, its movable non-filler cells
// and its fillers.
func liveNetDesign(seed int64) (d *netlist.Design, movable, fillers []int) {
	rng := rand.New(rand.NewSource(seed))
	d = netlist.New("live", geom.Rect{Hx: 100, Hy: 100})
	var fixed []int
	for i := 0; i < 200; i++ {
		movable = append(movable, d.AddCell(netlist.Cell{W: 2, H: 1, X: rng.Float64() * 100, Y: rng.Float64() * 100}))
	}
	for i := 0; i < 30; i++ {
		fixed = append(fixed, d.AddCell(netlist.Cell{W: 4, H: 4, X: rng.Float64() * 100, Y: rng.Float64() * 100, Fixed: true}))
	}
	fixed = append(fixed, d.AddCell(netlist.Cell{W: 1, H: 1, X: 0, Y: 50, Kind: netlist.Pad, Fixed: true}))
	for i := 0; i < 20; i++ {
		fillers = append(fillers, d.AddCell(netlist.Cell{W: 1, H: 1, X: rng.Float64() * 100, Y: rng.Float64() * 100, Kind: netlist.Filler}))
	}
	for k := 0; k < 320; k++ {
		weight := 1 + rng.Float64()
		if k%7 == 0 {
			weight = 0
		}
		ni := d.AddNet("", weight)
		deg := 1 + rng.Intn(5)
		for p := 0; p < deg; p++ {
			off := func() float64 { return rng.Float64() - 0.5 }
			switch r := rng.Intn(10); {
			case k%5 == 0 || r == 0: // fixed cells and pads only, or a fixed pin
				d.Connect(fixed[rng.Intn(len(fixed))], ni, off(), off())
			case r == 1:
				d.Connect(-1, ni, rng.Float64()*100, rng.Float64()*100)
			default:
				d.Connect(movable[rng.Intn(len(movable))], ni, off(), off())
			}
		}
	}
	ni := d.AddNet("floating", 1)
	d.Connect(-1, ni, 10, 10)
	d.Connect(-1, ni, 90, 30)
	return d, movable, fillers
}

// TestLiveNetsMatchAllNets holds the live-net model to the all-nets
// evaluation it replaced, for model subsets from empty to every movable
// cell, both smoothing kinds and worker counts 1, 2 and 7: LiveNets is
// exactly the nets of degree >= 2 with a pin on a model cell, the
// gradient is the reference's bit for bit, and the cost (with and
// without a gradient) is the in-order sum of the reference's costs of
// those nets.
func TestLiveNetsMatchAllNets(t *testing.T) {
	d, movable, fillers := liveNetDesign(5)
	cv := d.Compile()
	var tenth []int
	for k, ci := range movable {
		if k%10 == 3 {
			tenth = append(tenth, ci)
		}
	}
	subsets := []struct {
		name string
		idx  []int
	}{
		{"empty", []int{}},
		{"fillers", fillers},
		{"one cell", movable[7:8]},
		{"tenth", append(append([]int(nil), tenth...), fillers...)},
		{"all", append(append([]int(nil), movable...), fillers...)},
	}
	for _, sub := range subsets {
		inModel := make([]bool, len(d.Cells))
		for _, ci := range sub.idx {
			inModel[ci] = true
		}
		var wantLive []int32
		for ni := range d.Nets {
			pins := d.Nets[ni].Pins
			for _, pi := range pins {
				if c := d.Pins[pi].Cell; len(pins) >= 2 && c >= 0 && inModel[c] {
					wantLive = append(wantLive, int32(ni))
					break
				}
			}
		}
		for _, kind := range []Kind{WA, LSE} {
			m := NewCompiled(cv, sub.idx, 2.5)
			m.Kind = kind
			if got := fmt.Sprint(m.LiveNets()); got != fmt.Sprint(wantLive) {
				t.Fatalf("%s: LiveNets = %s, want %v", sub.name, got, wantLive)
			}
			refGrad := make([]float64, 2*len(sub.idx))
			refCosts := allNetsReference(m, refGrad)
			want := 0.0
			for _, ni := range wantLive {
				want += refCosts[ni]
			}
			grad := make([]float64, 2*len(sub.idx))
			for _, workers := range []int{1, 2, 7} {
				m.Workers = workers
				for i := range grad {
					grad[i] = math.NaN() // every element must be assigned
				}
				cost := m.CostAndGradient(grad)
				if math.Float64bits(cost) != math.Float64bits(want) {
					t.Errorf("%s kind %d workers %d: cost %v, live-net sum of the reference %v", sub.name, kind, workers, cost, want)
				}
				if co := m.Cost(); math.Float64bits(co) != math.Float64bits(want) {
					t.Errorf("%s kind %d workers %d: cost-only %v, want %v", sub.name, kind, workers, co, want)
				}
				if diff := sameBits(grad, refGrad); diff != "" {
					t.Errorf("%s kind %d workers %d: grad%s (all-nets reference)", sub.name, kind, workers, diff)
				}
			}
		}
	}
}

// BenchmarkWAGradientSubset measures one WA cost+gradient evaluation on
// a 5K-cell synthetic design with every movable cell in the model and
// with a tenth of them, an index-contiguous block as an ECO's active
// set is (synth clusters nets by cell index). The subset prices only
// its live nets, reported as live_nets.
func BenchmarkWAGradientSubset(b *testing.B) {
	d := synth.Generate(synth.Spec{Name: "wl-subset", NumCells: 5000})
	cv := d.Compile()
	mv := d.Movable()
	for _, sub := range []struct {
		name string
		idx  []int
	}{{"all", mv}, {"tenth", mv[:len(mv)/10]}} {
		b.Run(sub.name, func(b *testing.B) {
			m := NewCompiled(cv, sub.idx, 3.0)
			m.Workers = 1
			grad := make([]float64, 2*len(sub.idx))
			b.ReportAllocs()
			b.ReportMetric(float64(len(m.LiveNets())), "live_nets")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.CostAndGradient(grad)
			}
		})
	}
}
