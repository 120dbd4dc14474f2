package core

import (
	"context"
	"math"
	"path/filepath"
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

// TestFlowResumeRejectsBackendMismatch: the Poisson backends produce
// numerically distinct trajectories, so a snapshot taken under one
// backend must not silently continue under another.
func TestFlowResumeRejectsBackendMismatch(t *testing.T) {
	_, mgr := runCheckpointedFlow(t, t.TempDir(), 0)
	st, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Poisson != poisson.KindSpectral {
		t.Fatalf("snapshot backend = %q, want %q", st.Poisson, poisson.KindSpectral)
	}
	d := synth.Generate(detSpecs()[2])
	fo := detFlowOpts(1)
	fo.GP.Poisson = poisson.KindSpectral32
	fo.Resume = st
	_, err = Place(d, fo)
	if err == nil || !strings.Contains(err.Error(), "poisson backend") {
		t.Errorf("resume under a different backend: err = %v, want backend-mismatch error", err)
	}
	// The matching backend (spelled explicitly rather than as the ""
	// default) resumes fine.
	d2 := synth.Generate(detSpecs()[2])
	fo2 := detFlowOpts(1)
	fo2.GP.Poisson = poisson.KindSpectral
	fo2.Resume = st
	if _, err := Place(d2, fo2); err != nil {
		t.Errorf("resume under the matching backend failed: %v", err)
	}
}

// TestFlowRefusesRemovedBackend: a snapshot stamped with the multigrid
// backend an older build offered (same format version) is refused with
// the unknown-backend error naming the two that exist, by a resume
// (whether the run names the old backend too or defaults) and by an ECO
// run that, like the CLI and the server, stays on the snapshot's backend.
func TestFlowRefusesRemovedBackend(t *testing.T) {
	_, mgr := runCheckpointedFlow(t, t.TempDir(), 0)
	st, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	st.Poisson = "multigrid"
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `unknown backend "multigrid"`) ||
			!strings.Contains(err.Error(), strings.Join(poisson.Kinds(), " ")) {
			t.Errorf("%s: err = %v, want the unknown-backend error listing %v", what, err, poisson.Kinds())
		}
	}
	for _, kind := range []string{"", st.Poisson} {
		fo := detFlowOpts(1)
		fo.GP.Poisson = kind
		fo.Resume = st
		_, err := Place(synth.Generate(detSpecs()[2]), fo)
		refused("resume with -poisson "+kind, err)
	}
	d := synth.Generate(detSpecs()[2])
	if err := WarmStart(d, st); err != nil {
		t.Fatal(err)
	}
	_, err = PlaceECO(context.Background(), d, &eco.Plan{}, ECOOptions{GP: Options{Poisson: st.Poisson}})
	refused("ECO from the snapshot", err)
}

// TestFlowBitwiseDeterminismPerBackend extends the headline determinism
// guarantee to the non-default Poisson backend: within it the flow is
// bitwise-identical across runs and worker counts 1, 2 and 7.
func TestFlowBitwiseDeterminismPerBackend(t *testing.T) {
	spec := detSpecs()[2]
	for _, kind := range []string{poisson.KindSpectral32} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			opts := func(workers int) FlowOptions {
				fo := detFlowOpts(workers)
				fo.GP.Poisson = kind
				return fo
			}
			d0 := synth.Generate(spec)
			ref, err := Place(d0, opts(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
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
		})
	}
}
