package core

import (
	"context"
	"math"
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

// snapshots is a Saver that keeps every snapshot of a run, in
// order, each round-tripped through Encode and Decode as the file a
// checkpoint.Manager writes would be: the kill-and-resume tests replay
// arbitrary states of a run from it.
type snapshots []*checkpoint.State

func (s *snapshots) Save(st *checkpoint.State) error {
	data, err := checkpoint.Encode(st)
	if err != nil {
		return err
	}
	dec, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}
	*s = append(*s, dec)
	return nil
}

// last returns the latest snapshot, the one a Manager's Load reads.
func (s snapshots) last() *checkpoint.State { return s[len(s)-1] }

// TestFlowNilManagerSavesNothing: a nil *checkpoint.Manager stored in
// the Saver interface is not a nil interface; the flow and the ECO call
// treat it as no checkpointing rather than calling Save on it.
func TestFlowNilManagerSavesNothing(t *testing.T) {
	var mgr *checkpoint.Manager
	d := synth.Generate(detSpecs()[0])
	opt := detFlowOpts(1)
	opt.Checkpoint = mgr
	ref, err := Place(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := &eco.Plan{}
	if _, err := PlaceECO(context.Background(), d, plan, ECOOptions{GP: Options{Workers: 1}, Checkpoint: mgr}); err != nil {
		t.Fatal(err)
	}
	plain, err := Place(synth.Generate(detSpecs()[0]), detFlowOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := telemetry.DigestsEqual(plain.Digests, ref.Digests); !ok {
		t.Errorf("digests differ from a run without a checkpoint: %s", why)
	}
}

// runCheckpointedFlow runs the mixed-size circuit with checkpoints every
// `every` GP iterations and returns the result and every snapshot.
func runCheckpointedFlow(t *testing.T, every int) (FlowResult, snapshots) {
	t.Helper()
	var snaps snapshots
	fo := detFlowOpts(2)
	fo.GP.CheckpointEvery = every
	fo.Checkpoint = &snaps
	d := synth.Generate(detSpecs()[2])
	res, err := Place(d, fo)
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

// TestFlowKillAndResume models a crash mid-mGP: a retained mid-stage
// snapshot is loaded into a fresh copy of the same design and the flow
// continued from it. The resumed run must reach a bitwise-identical
// final placement, including every per-stage digest — at a different
// worker count than the original, since determinism spans both axes.
func TestFlowKillAndResume(t *testing.T) {
	ref, snaps := runCheckpointedFlow(t, 20)

	var mid *checkpoint.State
	for _, st := range snaps {
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
	ref, snaps := runCheckpointedFlow(t, 0) // boundaries only

	byPhase := map[string]*checkpoint.State{}
	for _, st := range snaps {
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

	// The latest snapshot is the finished flow: resuming it just
	// recomputes the summary without re-running any stage.
	done := snaps.last()
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
	res, snaps := runCheckpointedFlow(t, every)
	nMid := 0
	for k, st := range snaps {
		if st.Phase == checkpoint.PhaseMGP {
			nMid++
			if st.GP == nil || st.GP.Iter%every != 0 {
				t.Errorf("snapshot %d: mid-mGP snapshot at iter %v, want multiple of %d",
					k, st.GP, every)
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
	_, snaps := runCheckpointedFlow(t, 0)
	st := snaps.last()
	other := synth.Generate(synth.Spec{Name: "det-other", NumCells: 200})
	fo := detFlowOpts(1)
	fo.Resume = st
	if _, err := Place(other, fo); err == nil {
		t.Error("resume onto a different design succeeded; want fingerprint error")
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
