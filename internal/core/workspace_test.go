package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"eplace/internal/eco"
	"eplace/internal/fft"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// wsStage is one GP stage the workspace tests run: a synthetic design
// with its fillers, placed by placeGlobal (see run). With hold set, the
// stage holds every third standard cell, as cGP-filler holds them all.
type wsStage struct {
	spec  synth.Spec
	gridM int
	hold  bool
}

// wsOutcome is what a stage leaves: its deterministic Result fields, the
// final positions of every cell and the golden digests.
type wsOutcome struct {
	res     Result
	pos     []float64
	digests []telemetry.StageDigest
}

// run places the stage on the engine eng (nil builds a fresh one).
func (s wsStage) run(t *testing.T, eng *engine, workers int) wsOutcome {
	t.Helper()
	d := synth.Generate(s.spec)
	cv := d.Compile()
	fillers := InsertFillers(cv, 5)
	var idx, held []int
	for i := range d.Cells {
		switch c := &d.Cells[i]; {
		case c.Fixed:
		case s.hold && c.Kind == netlist.StdCell && i%3 == 0:
			held = append(held, i)
		default:
			idx = append(idx, i)
		}
	}
	idx = append(idx, fillers...)
	golden := telemetry.NewGoldenTrace()
	res, err := placeGlobal(context.Background(), gpStage{
		name: "mGP", cv: cv, region: d.Region, idx: idx, held: held,
		opt: Options{GridM: s.gridM, MaxIters: 80, Workers: workers}, golden: golden, eng: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(cv.PosX))
	for i := range all {
		all[i] = i
	}
	pos := make([]float64, 2*len(all))
	cv.PositionsInto(all, pos)
	return wsOutcome{res: res, pos: pos, digests: golden.Digests()}
}

// TestGPWorkspaceReuseSameBits holds the GP workspace to its contract:
// a stage run on an engine that a larger, different stage used first,
// with every buffer the engine holds then filled with garbage, ends on
// the bits a fresh engine gives. Each case runs at 1 and 2 workers; the
// smaller grid re-plans the Poisson transforms, the equal one reuses
// them and the float64 reference.
func TestGPWorkspaceReuseSameBits(t *testing.T) {
	small := wsStage{spec: synth.Spec{Name: "ws-small", NumCells: 300, NumMovableMacros: 2, Seed: 3}, gridM: 32}
	held := small
	held.hold = true
	for _, c := range []struct {
		name        string
		first, next wsStage
	}{
		{"smaller-grid", wsStage{spec: synth.Spec{Name: "ws-large", NumCells: 900, NumFixedMacros: 3, Seed: 4}, gridM: 64}, small},
		{"same-grid", wsStage{spec: synth.Spec{Name: "ws-large", NumCells: 700, Seed: 5}, gridM: 32}, small},
		{"held-cells", wsStage{spec: synth.Spec{Name: "ws-large", NumCells: 700, Seed: 5}, gridM: 32}, held},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				want := c.next.run(t, nil, workers)
				eng := &engine{}
				c.first.run(t, eng, workers)
				dirty(reflect.ValueOf(eng))
				got := c.next.run(t, eng, workers)
				g, w := got.res, want.res
				if g.Iterations != w.Iterations || g.Backtracks != w.Backtracks || g.Stop != w.Stop ||
					math.Float64bits(g.HPWL) != math.Float64bits(w.HPWL) ||
					math.Float64bits(g.Overflow) != math.Float64bits(w.Overflow) ||
					math.Float64bits(g.FinalLambda) != math.Float64bits(w.FinalLambda) {
					t.Errorf("reused workspace: %d iters, %d backtracks, stop %s, HPWL %v, overflow %v, lambda %v; fresh: %d, %d, %s, %v, %v, %v",
						g.Iterations, g.Backtracks, g.Stop, g.HPWL, g.Overflow, g.FinalLambda,
						w.Iterations, w.Backtracks, w.Stop, w.HPWL, w.Overflow, w.FinalLambda)
				}
				for i := range want.pos {
					if math.Float64bits(got.pos[i]) != math.Float64bits(want.pos[i]) {
						t.Fatalf("coordinate %d is %v on the reused workspace, %v on a fresh one", i, got.pos[i], want.pos[i])
					}
				}
				if ok, why := telemetry.DigestsEqual(want.digests, got.digests); !ok {
					t.Errorf("digests differ: %s", why)
				}
			})
		}
	}
}

// dirty fills every buffer v reaches, to its capacity, with NaN
// (floats), -1 (integers) and true (flags), so that a stage reading one
// before writing it, or accumulating into one it did not clear, ends on
// other bits. It leaves alone what the workspace only points at: the
// design, its view, the moved-cell list (idx), the recorder, and the
// transform tables, which are built for a grid size and only read.
func dirty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || skipDirty[v.Type()] {
			return
		}
		dirty(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name == "idx" {
				continue
			}
			f := v.Field(i)
			dirty(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Slice:
		dirtyElems(v.Slice(0, v.Cap()))
	case reflect.Array:
		dirtyElems(v)
	}
}

// dirtyElems dirties the elements of a slice or array.
func dirtyElems(v reflect.Value) {
	for i := 0; i < v.Len(); i++ {
		switch e := v.Index(i); e.Kind() {
		case reflect.Float32, reflect.Float64:
			e.SetFloat(math.NaN())
		case reflect.Int, reflect.Int32, reflect.Int64:
			e.SetInt(-1)
		case reflect.Bool:
			e.SetBool(true)
		case reflect.Pointer, reflect.Struct, reflect.Slice, reflect.Array:
			dirty(e)
		}
	}
}

// skipDirty lists the pointer types dirty leaves alone.
var skipDirty = map[reflect.Type]bool{
	reflect.TypeFor[*netlist.Design]():     true,
	reflect.TypeFor[*netlist.Compiled]():   true,
	reflect.TypeFor[*telemetry.Recorder](): true,
	reflect.TypeFor[*fft.Real[float32]]():  true,
	reflect.TypeFor[*fft.Real[float64]]():  true,
}

// stageBytes places d and returns the bytes each GP stage allocated
// under flowRun.gp, by stage.
func stageBytes(t *testing.T, d *netlist.Design, opt FlowOptions) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	tally, stop := profileAllocs("eplace/internal/core.(*flowRun).gp")
	defer stop()
	var start int64
	opt.gpHook = func(stage string, done bool) {
		b, _ := tally()
		if !done {
			start = b
			return
		}
		out[stage] += b - start
	}
	if _, err := Place(d, opt); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGPWorkspaceAllocs bounds what a GP stage allocates once the run's
// workspace is sized: the stages that follow a mixed-size flow's mGP,
// and the coarse levels of a V-cycle, which run before the finest level
// the workspace was sized for. The budgets are about twice the bytes
// measured when the test was written (the telemetry map entries, the
// Poisson transforms a new grid size plans, the schedule's closures); a
// stage that builds its optimizer, its models or its per-cell vectors
// afresh allocates several times more.
func TestGPWorkspaceAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   synth.Spec
		levels int
		stages []string
		budget int64
	}{
		{"mixed", synth.Spec{Name: "ws-mixed", NumCells: 3000, NumMovableMacros: 8, TargetDensity: 0.8, Utilization: 0.5}, 0,
			[]string{"cGP-filler", "cGP"}, 7 << 10},
		{"vcycle", synth.Spec{Name: "ws-vcycle", NumCells: 5000}, 3,
			[]string{"mGP/L2", "mGP/L1"}, 40 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := stageBytes(t, synth.Generate(c.spec), FlowOptions{GP: Options{Workers: 1}, Levels: c.levels})
			var sum int64
			for _, s := range c.stages {
				b, ok := got[s]
				if !ok {
					t.Fatalf("no %s stage ran (stages: %v)", s, got)
				}
				t.Logf("%s: %d bytes", s, b)
				sum += b
			}
			if sum > c.budget {
				t.Errorf("%v allocate %d bytes, budget %d", c.stages, sum, c.budget)
			}
		})
	}
}

// TestGPReserveAllocs bounds the GP workspace a placement sizes before
// its first stage (flowRun.reserveGP): the models, the optimizer's six
// vectors and the engine's two solution-shaped ones, its per-cell
// vectors. A flat and a 3-level run of 5K cells each stop at the entry
// of their first GP stage, when the workspace is sized. The budgets are
// the bytes measured when the test was written plus 5%; the
// twelve solution-sized vectors the workspace held before (v_{k-1} and
// its gradient in the optimizer, a wirelength-gradient copy and an
// end-of-stage buffer in the engine) take about 15% more.
func TestGPReserveAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   synth.Spec
		levels int
		budget int64
	}{
		{"flat", synth.Spec{Name: "bench-flat", NumCells: 5000, NumFixedMacros: 12, TargetDensity: 1.0}, 0, 3_334_144 * 105 / 100},
		{"vcycle", synth.Spec{Name: "bench-vcycle", NumCells: 5000}, 3, 3_317_760 * 105 / 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := FlowOptions{GP: Options{Workers: 1}, Levels: c.levels, gpHook: func(string, bool) { cancel() }}
			tally, stop := profileAllocs("eplace/internal/core.(*flowRun).reserveGP")
			defer stop()
			if _, err := PlaceContext(ctx, synth.Generate(c.spec), opt); !errors.Is(err, ErrCanceled) {
				t.Fatalf("the run did not stop at its first GP stage: %v", err)
			}
			b, _ := tally()
			t.Logf("reserveGP: %d bytes", b)
			if b > c.budget {
				t.Errorf("reserveGP allocates %d bytes, budget %d", b, c.budget)
			}
		})
	}
}

// TestFillersJoinViewOnce holds the flow's fillers to the view: on the
// input design and on a coarse level, inserting a level's planned
// fillers leaves the design's cells as they were, grows each view array
// once, to exactly the cells plus the fillers, and the first Sync after
// them allocates nothing. testing.AllocsPerRun would time a second Sync
// (its warm-up call is the first), so the count is taken around the one
// call, of the allocations under Sync.
func TestFillersJoinViewOnce(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "ws-sync", NumCells: 4000, NumFixedMacros: 4})
	cv := d.Compile()
	hier := buildHierarchy(cv, &FlowOptions{Levels: 2})
	if hier == nil {
		t.Fatal("no coarse level")
	}
	for k, view := range []*netlist.Compiled{cv, hier.Levels[0].View} {
		ld := view.Design()
		n, c := len(ld.Cells), cap(ld.Cells)
		fillers := placeFillers(view, ld.Region, insertPlan(ld), fillerSeed)
		if len(fillers) == 0 {
			t.Fatalf("level %d: no fillers", k)
		}
		if len(ld.Cells) != n || cap(ld.Cells) != c {
			t.Errorf("level %d: the design's cells went from %d/%d to %d/%d", k, n, c, len(ld.Cells), cap(ld.Cells))
		}
		if want := n + len(fillers); len(view.PosX) != want || cap(view.PosX) != want || cap(view.Filler) != want {
			t.Errorf("level %d: view holds %d entries in %d, want exactly %d cells + %d fillers",
				k, len(view.PosX), cap(view.PosX), n, len(fillers))
		}
		if n := syncObjects(view); n != 0 {
			t.Errorf("level %d: the first Sync after the fillers allocates %d times, want 0", k, n)
		}
	}
}

// syncObjects syncs view and returns the objects Sync allocated.
func syncObjects(view *netlist.Compiled) int64 {
	tally, stop := profileAllocs("eplace/internal/netlist.(*Compiled).Sync")
	defer stop()
	view.Sync()
	_, n := tally()
	return n
}

// TestEGPFillersJoinWithoutGrowing: a block edit's eGP inserts its
// fillers into the ECO run's view, never into the design, so PlaceECO
// leaves the cells eco.Apply sized exactly as they were, and inserting
// the fillers allocates the view's one growth (six arrays), their index
// list and the seeded generator's source, nothing more.
func TestEGPFillersJoinWithoutGrowing(t *testing.T) {
	spec := synth.Spec{Name: "egp-room", NumCells: 2500, Seed: 6}
	cold := synth.Generate(spec)
	if _, err := Place(cold, FlowOptions{GP: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	warm := warmCopy(spec, cold)
	prep, err := eco.Prepare(warm, blockEdit(warm.Region), eco.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Plan.Evicted) == 0 {
		t.Fatalf("the block evicted nothing: %s", prep.Plan)
	}
	n, c := len(warm.Cells), cap(warm.Cells)
	tally, stop := profileAllocs("eplace/internal/core.placeFillers")
	defer stop()
	res, err := PlaceECO(context.Background(), warm, prep.Plan, ECOOptions{GP: Options{Workers: 1}})
	_, objects := tally()
	if err != nil {
		t.Fatal(err)
	}
	if res.GP.Stop == "" {
		t.Fatal("eGP did not run")
	}
	if len(warm.Cells) != n || cap(warm.Cells) != c {
		t.Errorf("PlaceECO took the design's cells from %d/%d to %d/%d", n, c, len(warm.Cells), cap(warm.Cells))
	}
	if objects > 8 {
		t.Errorf("inserting eGP's fillers allocates %d objects, want at most 8", objects)
	}
}

// BenchmarkFlowAllocs places one design per flow shape at 4-5K cells:
// flat, mixed-size and a 3-level V-cycle. Run with -benchmem, B/op is
// what one placement allocates.
func BenchmarkFlowAllocs(b *testing.B) {
	for _, c := range []struct {
		name   string
		spec   synth.Spec
		levels int
	}{
		{"flat", synth.Spec{Name: "bench-flat", NumCells: 5000, NumFixedMacros: 12, TargetDensity: 1.0}, 0},
		{"mixed", synth.Spec{Name: "bench-mixed", NumCells: 4000, NumMovableMacros: 16, TargetDensity: 0.8, Utilization: 0.5}, 0},
		{"vcycle", synth.Spec{Name: "bench-vcycle", NumCells: 5000}, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			base := synth.Generate(c.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				d := base.Clone()
				b.StartTimer()
				if _, err := Place(d, FlowOptions{GP: Options{Workers: 1}, Levels: c.levels}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
