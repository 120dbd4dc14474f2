package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// cancelAtSink cancels a context when a sample for (stage, iter)
// arrives — or, with boundary set, when the named stage's span arrives,
// which the flow emits just before that stage's boundary save and
// cancel check. Either is a deterministic way to interrupt a flow from
// the outside, exactly as a scheduler preempting a job would.
type cancelAtSink struct {
	stage    string
	iter     int
	boundary bool
	cancel   context.CancelFunc
}

func (s *cancelAtSink) Sample(sm telemetry.Sample) {
	if !s.boundary && sm.Stage == s.stage && sm.Iteration == s.iter {
		s.cancel()
	}
}
func (s *cancelAtSink) Span(sp telemetry.SpanRecord) {
	if s.boundary && sp.Kernel == "" && sp.Stage == s.stage {
		s.cancel()
	}
}
func (s *cancelAtSink) Close() error { return nil }

// cancelAndResume is the cancellation contract end-to-end: a flow
// interrupted where at says returns ErrCanceled with the partial
// results and leaves a loadable checkpoint (even with no CheckpointEvery
// cadence configured: boundary cadence only), and resuming that
// checkpoint on a fresh design copy at another worker count finishes
// with final HPWL and per-stage golden digests bitwise-identical to the
// never-interrupted run ref. It returns the partial result and the
// checkpoint the interrupted run left.
func cancelAndResume(t *testing.T, spec synth.Spec, opts func(workers int) FlowOptions, ref FlowResult, at cancelAtSink) (FlowResult, *checkpoint.State) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	at.cancel = cancel
	mgr, err := checkpoint.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fo := opts(2)
	fo.GP.Telemetry = telemetry.New(&at)
	fo.Checkpoint = mgr
	partial, err := PlaceContext(ctx, synth.Generate(spec), fo)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled flow returned %v, want ErrCanceled", err)
	}
	st, err := mgr.Load()
	if err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}

	fo2 := opts(7)
	fo2.Resume = st
	res, err := Place(synth.Generate(spec), fo2)
	if err != nil {
		t.Fatalf("resume from %q: %v", st.Phase, err)
	}
	if math.Float64bits(res.HPWL) != math.Float64bits(ref.HPWL) {
		t.Errorf("resumed from %q: HPWL %v differs from uninterrupted %v", st.Phase, res.HPWL, ref.HPWL)
	}
	if ok, why := telemetry.DigestsEqual(ref.Digests, res.Digests); !ok {
		t.Errorf("resumed from %q: digests differ from uninterrupted run: %s", st.Phase, why)
	}
	if !res.Legal {
		t.Errorf("resumed from %q: flow not legal", st.Phase)
	}
	return partial, st
}

// TestFlowCancelMidMGPResumesBitwise: cancel fires during mGP iteration
// 12, so the loop stops at the top of iteration 13 and the mid-stage
// snapshot holds exactly that state.
func TestFlowCancelMidMGPResumesBitwise(t *testing.T) {
	spec := detSpecs()[2] // mixed-size: every flow stage runs
	ref, err := Place(synth.Generate(spec), detFlowOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	res, st := cancelAndResume(t, spec, detFlowOpts, ref, cancelAtSink{stage: "mGP", iter: 12})
	if res.MGP.Stop != StopCanceled {
		t.Errorf("partial mGP result stopped by %q, want %q", res.MGP.Stop, StopCanceled)
	}
	if res.MGP.Iterations == 0 {
		t.Error("partial result carries no mGP iterations")
	}
	if st.Phase != checkpoint.PhaseMGP {
		t.Fatalf("final checkpoint phase %q, want mid-mGP", st.Phase)
	}
	if st.GP == nil || st.GP.Iter != 13 {
		t.Fatalf("final checkpoint GP state %+v, want Iter=13", st.GP)
	}
}

// TestFlowCancelBeforeStart: a context already canceled at entry stops
// the flow at the first boundary with the typed error.
func TestFlowCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := synth.Generate(synth.Spec{Name: "cancel-pre", NumCells: 120})
	_, err := PlaceContext(ctx, d, detFlowOpts(1))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled flow returned %v, want ErrCanceled", err)
	}
}

// TestFlowCancelMidCGP: cancellation during the second GP loop leaves a
// mid-cGP snapshot that also resumes bitwise-identically.
func TestFlowCancelMidCGP(t *testing.T) {
	spec := detSpecs()[2]
	ref, err := Place(synth.Generate(spec), detFlowOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	_, st := cancelAndResume(t, spec, detFlowOpts, ref, cancelAtSink{stage: "cGP", iter: 5})
	if st.Phase != checkpoint.PhaseCGP {
		t.Fatalf("checkpoint phase %q, want mid-cGP", st.Phase)
	}
}

// TestFlowCancelAtEveryBoundary cancels a three-level mixed-size run at
// each stage boundary in turn — after mIP, every coarse level, mGP, mLG
// and cGP — and requires each to stop there with the typed error and
// resume bitwise. The last stage has no boundary to stop at: once cDP
// has run, the flow is finished.
func TestFlowCancelAtEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("one three-level flow per stage boundary")
	}
	spec := synth.Spec{Name: "cancel-ml", NumCells: 2600, NumMovableMacros: 3}
	opts := func(workers int) FlowOptions {
		return FlowOptions{GP: Options{GridM: 64, MaxIters: 500, Workers: workers}, Levels: 3}
	}
	ref, err := Place(synth.Generate(spec), opts(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mIP", "mGP/L2", "mGP/L1", "mGP", "mLG", "cGP", "cDP"}
	if len(ref.Stages) != len(want) {
		t.Fatalf("stages = %v, want %v", ref.Stages, want)
	}
	for i, stage := range want[:len(want)-1] {
		if ref.Stages[i].Name != stage {
			t.Fatalf("stage %d = %q, want %q", i, ref.Stages[i].Name, stage)
		}
		partial, _ := cancelAndResume(t, spec, opts, ref, cancelAtSink{stage: stage, boundary: true})
		if n := len(partial.Stages); n != i+1 || partial.Stages[i].Name != stage {
			t.Errorf("canceled after %s: partial stages %v, want the first %d", stage, partial.Stages, i+1)
		}
	}
}
