package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/eco"
	"eplace/internal/poisson"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// detSpecs are the synthetic circuits of the reproducibility suite:
// std-cell-only, fixed-macro, and mixed-size (all three flow shapes).
func detSpecs() []synth.Spec {
	return []synth.Spec{
		{Name: "det-std", NumCells: 300},
		{Name: "det-fixed", NumCells: 280, NumFixedMacros: 3},
		{Name: "det-mms", NumCells: 260, NumMovableMacros: 3},
	}
}

func detFlowOpts(workers int) FlowOptions {
	return FlowOptions{GP: Options{GridM: 32, MaxIters: 500, Workers: workers}}
}

// TestFlowBitwiseDeterminism is the headline acceptance test: the full
// flow run twice — and at worker counts 1, 2 and 7 — produces the same
// final HPWL to the bit and identical per-stage golden digests on every
// circuit shape.
func TestFlowBitwiseDeterminism(t *testing.T) {
	for _, spec := range detSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d0 := synth.Generate(spec)
			ref, err := Place(d0, detFlowOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Digests) == 0 {
				t.Fatal("flow produced no golden digests")
			}
			for _, workers := range []int{1, 2, 7} {
				d := synth.Generate(spec)
				res, err := Place(d, detFlowOpts(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
					t.Errorf("workers=%d: HPWL %v differs from reference %v",
						workers, res.HPWL, ref.HPWL)
				}
				if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
					t.Errorf("workers=%d: digests differ: %s", workers, why)
				}
			}
		})
	}
}

// TestFlowBackEndParallelDeterminism extends the golden-digest
// property to a circuit big enough that the parallel back end is
// genuinely sharded: ~5000 std cells split row legalization into
// multiple bands and cDP into multiple regions, so the mLG/cDP digests
// cover the region-parallel passes, the propose/commit ISM protocol,
// and the banded legalizer — not just their single-shard degenerate
// forms.
func TestFlowBackEndParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement at 5000 cells")
	}
	spec := synth.Spec{Name: "det-backend", NumCells: 5000, NumMovableMacros: 2}
	opts := func(workers int) FlowOptions {
		return FlowOptions{GP: Options{GridM: 32, MaxIters: 80, MinIters: 10, Workers: workers}}
	}
	d0 := synth.Generate(spec)
	ref, err := Place(d0, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		d := synth.Generate(spec)
		res, err := Place(d, opts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
			t.Errorf("workers=%d: HPWL %v differs from reference %v",
				workers, res.HPWL, ref.HPWL)
		}
		if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
			t.Errorf("workers=%d: digests differ: %s", workers, why)
		}
	}
}

// runCheckpointedFlow runs the mixed-size circuit with history-keeping
// checkpoints every `every` GP iterations and returns the result and
// the manager.
func runCheckpointedFlow(t *testing.T, dir string, every int) (FlowResult, *checkpoint.Manager) {
	t.Helper()
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr.History = true
	mgr.Keep = -1 // these tests replay arbitrary retained snapshots
	fo := detFlowOpts(2)
	fo.GP.CheckpointEvery = every
	fo.Checkpoint = mgr
	d := synth.Generate(detSpecs()[2])
	res, err := Place(d, fo)
	if err != nil {
		t.Fatal(err)
	}
	return res, mgr
}

// TestFlowKillAndResume models a crash mid-mGP: a retained mid-stage
// snapshot is loaded into a fresh copy of the same design and the flow
// continued from it. The resumed run must reach a bitwise-identical
// final placement, including every per-stage digest — at a different
// worker count than the original, since determinism spans both axes.
func TestFlowKillAndResume(t *testing.T) {
	ref, mgr := runCheckpointedFlow(t, t.TempDir(), 20)

	files, err := mgr.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	var mid *checkpoint.State
	for _, f := range files {
		st, err := checkpoint.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if st.Phase == checkpoint.PhaseMGP {
			mid = st // last retained mid-mGP snapshot wins
		}
	}
	if mid == nil {
		t.Fatal("no mid-mGP snapshot retained (CheckpointEvery too large for the run?)")
	}
	if mid.GP == nil || mid.GP.Iter <= 0 {
		t.Fatalf("mid-mGP snapshot carries no GP state: %+v", mid.GP)
	}

	fo := detFlowOpts(7)
	fo.GP.CheckpointEvery = 20
	fo.Resume = mid
	d := synth.Generate(detSpecs()[2])
	res, err := Place(d, fo)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
		t.Errorf("resumed HPWL %v differs from uninterrupted %v", res.HPWL, ref.HPWL)
	}
	if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
		t.Errorf("resumed digests differ: %s", why)
	}
	if !res.Legal {
		t.Error("resumed flow not legal")
	}
}

// TestFlowResumeFromBoundary resumes from every stage boundary (no
// in-flight optimizer state) and from the finished snapshot. The
// post-mLG and later boundaries matter specially: they skip the macro
// legalizer, which is what pins macros as fixed — the snapshot must
// restore those flags or cGP's density field would miss the macros.
func TestFlowResumeFromBoundary(t *testing.T) {
	ref, mgr := runCheckpointedFlow(t, t.TempDir(), 0) // boundaries only

	files, err := mgr.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	byPhase := map[string]*checkpoint.State{}
	for _, f := range files {
		st, err := checkpoint.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		byPhase[st.Phase] = st
	}
	for _, phase := range []string{
		checkpoint.PhasePostMIP, checkpoint.PhasePostMGP,
		checkpoint.PhasePostMLG, checkpoint.PhasePostCGPFiller,
		checkpoint.PhasePreCDP,
	} {
		st := byPhase[phase]
		if st == nil {
			t.Fatalf("no %q boundary snapshot", phase)
		}
		fo := detFlowOpts(1)
		fo.Resume = st
		d := synth.Generate(detSpecs()[2])
		res, err := Place(d, fo)
		if err != nil {
			t.Fatalf("resume from %q: %v", phase, err)
		}
		if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
			t.Errorf("resume from %q: HPWL %v != %v", phase, res.HPWL, ref.HPWL)
		}
		if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
			t.Errorf("resume from %q: digests differ: %s", phase, why)
		}
	}

	// latest.ckpt is the finished flow: resuming it just recomputes the
	// summary without re-running any stage.
	done, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if done.Phase != checkpoint.PhaseDone {
		t.Fatalf("latest snapshot phase = %q, want %q", done.Phase, checkpoint.PhaseDone)
	}
	fo2 := detFlowOpts(1)
	fo2.Resume = done
	d2 := synth.Generate(detSpecs()[2])
	res2, err := Place(d2, fo2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res2.HPWL) != math.Float64bits(ref.HPWL) {
		t.Errorf("done-resumed HPWL %v != %v", res2.HPWL, ref.HPWL)
	}
}

// TestFlowCheckpointCadence pins the mid-stage snapshot trigger: with
// CheckpointEvery=N the mGP loop writes a snapshot at every Nth
// absolute iteration, so the retained history holds floor(iters/N)
// mid-mGP files (alignment on absolute iteration numbers is what lets
// a resumed run checkpoint at the same points).
func TestFlowCheckpointCadence(t *testing.T) {
	every := 25
	res, mgr := runCheckpointedFlow(t, t.TempDir(), every)
	files, err := mgr.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	nMid := 0
	for _, f := range files {
		st, err := checkpoint.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase == checkpoint.PhaseMGP {
			nMid++
			if st.GP == nil || st.GP.Iter%every != 0 {
				t.Errorf("%s: mid-mGP snapshot at iter %v, want multiple of %d",
					filepath.Base(f), st.GP, every)
			}
		}
	}
	want := res.MGP.Iterations / every
	if nMid != want {
		t.Errorf("retained %d mid-mGP snapshots, want %d (mGP ran %d iters)",
			nMid, want, res.MGP.Iterations)
	}
}

// TestFlowResumeRejectsForeignDesign: a snapshot must not silently
// resume onto a structurally different design.
func TestFlowResumeRejectsForeignDesign(t *testing.T) {
	_, mgr := runCheckpointedFlow(t, t.TempDir(), 0)
	st, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	other := synth.Generate(synth.Spec{Name: "det-other", NumCells: 200})
	fo := detFlowOpts(1)
	fo.Resume = st
	if _, err := Place(other, fo); err == nil {
		t.Error("resume onto a different design succeeded; want fingerprint error")
	}
}

// TestFlowRefusesRemovedBackend: this build stamps its snapshots
// spectral32 and resumes only those. A snapshot stamped by a solver it
// no longer has — the float64 "spectral" one, "multigrid", or "" from
// before solvers were stamped — is refused with ErrSnapshotBackend. An
// ECO run warm-started from the same snapshot reads its positions only
// and places as usual.
func TestFlowRefusesRemovedBackend(t *testing.T) {
	ref, mgr := runCheckpointedFlow(t, t.TempDir(), 0)
	done, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if done.Poisson != poisson.KindSpectral32 {
		t.Fatalf("snapshot stamped %q, want %q", done.Poisson, poisson.KindSpectral32)
	}
	for _, tc := range []struct{ name, stamp string }{
		{"spectral32", poisson.KindSpectral32},
		{"unstamped", ""},
		{"spectral", "spectral"},
		{"multigrid", "multigrid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := *done
			st.Poisson = tc.stamp
			fo := detFlowOpts(1)
			fo.Resume = &st
			res, err := Place(synth.Generate(detSpecs()[2]), fo)
			switch {
			case tc.stamp == poisson.KindSpectral32:
				if err != nil || math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
					t.Errorf("resume: HPWL %v, err %v; want %v", res.HPWL, err, ref.HPWL)
				}
			case !errors.Is(err, ErrSnapshotBackend) || !strings.Contains(err.Error(), strconv.Quote(tc.stamp)):
				t.Errorf("resume: err = %v, want ErrSnapshotBackend naming %q", err, tc.stamp)
			}
			d := synth.Generate(detSpecs()[2])
			if err := WarmStart(d, &st); err != nil {
				t.Fatal(err)
			}
			if res, err := PlaceECO(context.Background(), d, &eco.Plan{}, ECOOptions{}); err != nil || !res.Legal {
				t.Errorf("ECO from the snapshot: legal %v, err %v", res.Legal, err)
			}
		})
	}
}

// TestFlowBitwiseDeterminismPerBackend: the solver name the benchmark
// still passes, spectral32 spelled out, places bit for bit like the ""
// default at worker counts 1, 2 and 7.
func TestFlowBitwiseDeterminismPerBackend(t *testing.T) {
	spec := detSpecs()[2]
	t.Run(poisson.KindSpectral32, func(t *testing.T) {
		ref, err := Place(synth.Generate(spec), detFlowOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			fo := detFlowOpts(workers)
			fo.GP.Poisson = poisson.KindSpectral32
			res, err := Place(synth.Generate(spec), fo)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
				t.Errorf("workers=%d: HPWL %v differs from reference %v",
					workers, res.HPWL, ref.HPWL)
			}
			if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
				t.Errorf("workers=%d: digests differ: %s", workers, why)
			}
		}
	})
}
