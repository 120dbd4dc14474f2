package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// orientSpec is a mixed-size circuit on which mLG, with rotation, turns
// two of its five macros; orientPinned are the digests of its flow
// (recorded on amd64 with AVX2).
var (
	orientSpec   = synth.Spec{Name: "orient", NumCells: 400, NumMovableMacros: 5, Seed: 2}
	orientPinned = []string{
		"mIP 1 3a2911739acaf018",
		"mGP 150 5043cd9c275ba760",
		"mLG 1 17c398bb9c4a10f5",
		"cGP-filler 20 96cc2bb7572e1bea",
		"cGP 26 34e5c1df667a5624",
		"cDP 3 03167e47cf8166f2",
		"final 1 7bbb1515d692c83a",
	}
)

// digestLines lists a run's digests as "stage iterations hash".
func digestLines(ds []telemetry.StageDigest) []string {
	var out []string
	for _, dg := range ds {
		out = append(out, fmt.Sprintf("%s %d %s", dg.Stage, dg.Iterations, dg.Hex()))
	}
	return out
}

// turnedMacros counts the macros of d whose width differs from in's.
func turnedMacros(d, in *netlist.Design) int {
	n := 0
	for _, mi := range macros(in) {
		if d.Cells[mi].W != in.Cells[mi].W {
			n++
		}
	}
	return n
}

// TestFlowAllowOrientPinned holds the mixed-size flow with macro rotation
// to pinned digests. mLG turns two of the five macros, which swaps their
// W/H and rewrites their pins' offsets in the design and in the run's
// view together (netlist.Compiled.Turn): a turn that missed the view's
// extents or pin offsets moves cGP and everything after it, and fails
// here. Seed 2 is a circuit on which mLG turns macros.
func TestFlowAllowOrientPinned(t *testing.T) {
	for _, workers := range []int{1, 7} {
		d, in := synth.Generate(orientSpec), synth.Generate(orientSpec)
		opt := detFlowOpts(workers)
		opt.AllowOrient = true
		res, err := Place(d, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if turnedMacros(d, in) == 0 {
			t.Fatalf("workers=%d: no macro ended rotated; the case no longer covers pin-offset staleness", workers)
		}
		if got := digestLines(res.Digests); !slices.Equal(got, orientPinned) {
			t.Errorf("workers=%d: digests\n%q\npinned\n%q", workers, got, orientPinned)
		}
	}
}

// TestResumeKeepsMacroTurns: every snapshot the rotating flow takes past
// mLG, at a stage boundary or mid-stage, records mLG's turns, and a run
// resumed from it turns the macros again before it places: it ends with
// the pinned digests and the uninterrupted run's turned macros. An ECO
// warm start refuses the finished snapshot, whose positions belong to
// turned macros, with a *TurnedMacrosError.
func TestResumeKeepsMacroTurns(t *testing.T) {
	var snaps snapshots
	opt := detFlowOpts(1)
	opt.AllowOrient = true
	opt.GP.CheckpointEvery = 10
	opt.Checkpoint = &snaps
	ref := synth.Generate(orientSpec)
	if _, err := Place(ref, opt); err != nil {
		t.Fatal(err)
	}
	in := synth.Generate(orientSpec)
	turned := turnedMacros(ref, in)
	past := 0
	for _, st := range snaps {
		if st.Phase == checkpoint.PhasePostMIP || st.Phase == checkpoint.PhaseMGP || st.Phase == checkpoint.PhasePostMGP {
			if st.Turns != nil {
				t.Errorf("%s snapshot records turns before mLG ran: %v", st.Phase, st.Turns)
			}
			if st.Phase == checkpoint.PhasePostMGP {
				// Turns on a snapshot from before mLG are refused.
				bad := *st
				bad.Turns = make([]uint8, len(macros(in)))
				bad.Turns[0] = 1
				ropt := detFlowOpts(1)
				ropt.Resume = &bad
				if _, err := Place(synth.Generate(orientSpec), ropt); err == nil {
					t.Errorf("a %s snapshot with turns resumed", st.Phase)
				}
			}
			continue
		}
		past++
		if st.Turns == nil {
			t.Errorf("%s snapshot records no turns", st.Phase)
		}
		d := synth.Generate(orientSpec)
		ropt := detFlowOpts(1)
		ropt.AllowOrient = true
		ropt.Resume = st
		res, err := Place(d, ropt)
		if err != nil {
			t.Fatalf("resume from %s: %v", st.Phase, err)
		}
		if got := digestLines(res.Digests); !slices.Equal(got, orientPinned) {
			t.Errorf("resume from %s (GP state %v): digests\n%q\npinned\n%q", st.Phase, st.GP != nil, got, orientPinned)
		}
		if n := turnedMacros(d, in); n != turned {
			t.Errorf("resume from %s ends with %d macros turned, the uninterrupted run %d", st.Phase, n, turned)
		}
	}
	if past < 8 {
		t.Fatalf("%d snapshots past mLG, want the boundaries and the mid-stage ones", past)
	}
	done := snaps[len(snaps)-1]
	bad := *done
	bad.Turns = slices.Clone(done.Turns)
	bad.Turns[0] = 4
	ropt := detFlowOpts(1)
	ropt.AllowOrient, ropt.Resume = true, &bad
	if _, err := Place(synth.Generate(orientSpec), ropt); err == nil {
		t.Error("a snapshot with 4 quarter turns of a macro resumed")
	}
	var te *TurnedMacrosError
	if err := WarmStart(synth.Generate(orientSpec), done); !errors.As(err, &te) {
		t.Errorf("WarmStart of a turned run's %s snapshot: %v, want a *TurnedMacrosError", done.Phase, err)
	}
}
