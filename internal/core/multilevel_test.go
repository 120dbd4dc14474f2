package core

import (
	"math"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// mlSpec is large enough for a three-level hierarchy (the ~650-cluster
// middle level clears the clustering minimum again, the ~160-cluster
// coarsest does not).
func mlSpec() synth.Spec {
	return synth.Spec{Name: "ml-det", NumCells: 2600, NumFixedMacros: 4}
}

func mlFlowOpts(workers int) FlowOptions {
	return FlowOptions{
		GP:               Options{GridM: 64, MaxIters: 500, Workers: workers},
		Levels:           3,
		SkipLegalization: true,
	}
}

// TestMultilevelDeterministicAcrossWorkers: the V-cycle run at worker
// counts 1, 2 and 7 produces bit-identical results and identical golden
// digests at every level — coarsening is serial and the per-level
// engines keep their reduction trees fixed, so nothing may drift.
func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Place(synth.Generate(mlSpec()), mlFlowOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.ML) != 2 {
		t.Fatalf("ML levels = %d, want 2 (hierarchy did not build?)", len(ref.ML))
	}
	if ref.ML[0].Level != 2 || ref.ML[1].Level != 1 {
		t.Fatalf("ML levels out of order: %+v", ref.ML)
	}
	stages := map[string]bool{}
	for _, sd := range ref.Digests {
		stages[sd.Stage] = true
	}
	for _, want := range []string{"mIP", "mGP/L2", "mGP/L1", "mGP"} {
		if !stages[want] {
			t.Errorf("no golden digest for stage %q (got %v)", want, ref.Digests)
		}
	}
	for _, workers := range []int{2, 7} {
		res, err := Place(synth.Generate(mlSpec()), mlFlowOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
			t.Errorf("workers=%d: HPWL %v differs from reference %v", workers, res.HPWL, ref.HPWL)
		}
		if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
			t.Errorf("workers=%d: digests differ: %s", workers, why)
		}
	}
}

// runMLCheckpointed runs the multilevel flow with snapshots every
// `every` GP iterations and returns the result and every snapshot.
func runMLCheckpointed(t *testing.T, every int) (FlowResult, snapshots) {
	t.Helper()
	var snaps snapshots
	fo := mlFlowOpts(2)
	fo.GP.CheckpointEvery = every
	fo.Checkpoint = &snaps
	res, err := Place(synth.Generate(mlSpec()), fo)
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

// TestMultilevelKillAndResume models a crash inside a coarse level's
// placement: mid-stage snapshots from both coarse levels and the finest
// mGP (and the prelude boundaries) are resumed in fresh processes at a different
// worker count, and every resumed run must reproduce the uninterrupted
// run bit for bit, digests included.
func TestMultilevelKillAndResume(t *testing.T) {
	ref, snaps := runMLCheckpointed(t, 10)

	byPhase := map[string]*checkpoint.State{}
	for _, st := range snaps {
		byPhase[st.Phase] = st // last snapshot per phase wins
	}

	cases := []struct {
		phase string
		level int
		mid   bool
	}{
		{checkpoint.PhasePostMIP, 2, false},
		{checkpoint.PhaseMLevel(2), 2, true},
		{checkpoint.PhasePostMLevel(2), 1, false},
		{checkpoint.PhaseMLevel(1), 1, true},
		{checkpoint.PhasePostML, 0, false},
		// The finest mGP keeps the V-cycle's per-bin charge on resume.
		{checkpoint.PhaseMGP, 0, true},
	}
	for _, tc := range cases {
		st := byPhase[tc.phase]
		if st == nil {
			t.Fatalf("no %q snapshot retained", tc.phase)
		}
		if st.Level != tc.level {
			t.Fatalf("%q snapshot at level %d, want %d", tc.phase, st.Level, tc.level)
		}
		if tc.mid && (st.GP == nil || st.GP.Iter <= 0) {
			t.Fatalf("%q snapshot carries no in-flight GP state", tc.phase)
		}
		fo := mlFlowOpts(7)
		fo.Resume = st
		res, err := Place(synth.Generate(mlSpec()), fo)
		if err != nil {
			t.Fatalf("resume from %q: %v", tc.phase, err)
		}
		if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
			t.Errorf("resume from %q: HPWL %v != %v", tc.phase, res.HPWL, ref.HPWL)
		}
		if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
			t.Errorf("resume from %q: digests differ: %s", tc.phase, why)
		}
	}
}

// TestMultilevelResumeRejectsFlatMismatch: a coarse-level snapshot must
// not resume into a flow configured without levels.
func TestMultilevelResumeRejectsFlatMismatch(t *testing.T) {
	_, snaps := runMLCheckpointed(t, 10)
	var coarse *checkpoint.State
	for _, st := range snaps {
		if st.Level > 0 {
			coarse = st
		}
	}
	if coarse == nil {
		t.Fatal("no coarse-level snapshot retained")
	}
	fo := mlFlowOpts(1)
	fo.Levels = 1 // flat flow
	fo.Resume = coarse
	if _, err := Place(synth.Generate(mlSpec()), fo); err == nil {
		t.Error("coarse snapshot resumed into a flat flow; want an error")
	}
}

// TestMultilevelMatchesFlatQuality is the e2e quality guard: on
// scale-0.2 suite circuits the full multilevel flow must stay legal and
// land within 10% of the flat flow's final HPWL (measured runs are
// typically a few percent better; the margin absorbs noise across
// circuit shapes, not a real regression).
func TestMultilevelMatchesFlatQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("two full flows per circuit")
	}
	specs := []synth.Spec{
		synth.ISPD05Suite(0.2)[0], // ADAPTEC1: std cells + fixed blocks
		synth.ISPD06Suite(0.2)[1], // NEWBLUE1: whitespace-rich
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			flat, err := Place(synth.Generate(spec), FlowOptions{GP: Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			ml, err := Place(synth.Generate(spec), FlowOptions{GP: Options{Workers: 2}, Levels: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !ml.Legal {
				t.Fatal("multilevel result not legal")
			}
			if len(ml.ML) == 0 {
				t.Fatal("multilevel flow built no levels")
			}
			if ratio := ml.HPWL / flat.HPWL; ratio > 1.10 {
				t.Errorf("ML HPWL %.0f is %.1f%% worse than flat %.0f (allow 10%%)",
					ml.HPWL, 100*(ratio-1), flat.HPWL)
			}
		})
	}
}
