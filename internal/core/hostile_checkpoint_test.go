package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/synth"
)

// hostileSpec and hostileOpts are the small flow whose snapshots the
// hostile-checkpoint tests corrupt; every resume replays them.
var hostileSpec = synth.Spec{Name: "hostile", NumCells: 150, Seed: 9}

func hostileOpts() FlowOptions {
	return FlowOptions{GP: Options{GridM: 16, MaxIters: 300, Workers: 1}}
}

var hostileBase struct {
	once   sync.Once
	states []*checkpoint.State // one per phase, in save order
	err    error
}

// hostileStates runs the flow once with a snapshot every 25 GP
// iterations and returns the first snapshot of each phase: the stage
// boundaries, mGP at iteration 25 and the finished run.
func hostileStates(tb testing.TB) []*checkpoint.State {
	tb.Helper()
	b := &hostileBase
	b.once.Do(func() {
		var snaps snapshots
		fo := hostileOpts()
		fo.GP.CheckpointEvery = 25
		fo.Checkpoint = &snaps
		if _, b.err = Place(synth.Generate(hostileSpec), fo); b.err != nil {
			return
		}
		seen := map[string]bool{}
		for _, st := range snaps {
			if !seen[st.Phase] {
				seen[st.Phase] = true
				b.states = append(b.states, st)
			}
		}
	})
	if b.err != nil {
		tb.Fatal(b.err)
	}
	return b.states
}

// stateOf returns a deep copy of the retained snapshot of phase.
func stateOf(tb testing.TB, phase string) *checkpoint.State {
	tb.Helper()
	for _, st := range hostileStates(tb) {
		if st.Phase == phase {
			return cloneState(st)
		}
	}
	tb.Fatalf("no %q snapshot", phase)
	return nil
}

func cloneState(st *checkpoint.State) *checkpoint.State {
	c := *st
	c.X, c.Y = slices.Clone(st.X), slices.Clone(st.Y)
	if st.GP != nil {
		gp := *st.GP
		gp.Best = slices.Clone(st.GP.Best)
		n := &gp.Nesterov
		n.U, n.V, n.GradV = slices.Clone(n.U), slices.Clone(n.V), slices.Clone(n.GradV)
		c.GP = &gp
	}
	return &c
}

// resumeFrom continues the hostile flow from st on a fresh design.
func resumeFrom(st *checkpoint.State) error {
	fo := hostileOpts()
	fo.Resume = st
	_, err := PlaceContext(context.Background(), synth.Generate(hostileSpec), fo)
	return err
}

// TestWarmStartRejectsShortY: a snapshot with fewer y than x positions
// is refused with an error before any cell moves, instead of indexing
// past Y inside RestorePositions.
func TestWarmStartRejectsShortY(t *testing.T) {
	st := stateOf(t, checkpoint.PhaseDone)
	st.Y = st.Y[:len(st.Y)-1]
	d := synth.Generate(hostileSpec)
	before := slices.Clone(d.Positions(d.Movable()))
	err := WarmStart(d, st)
	if err == nil || !strings.Contains(err.Error(), "y positions") {
		t.Fatalf("WarmStart with a short Y: error %v", err)
	}
	if !slices.Equal(before, d.Positions(d.Movable())) {
		t.Error("a rejected snapshot moved cells")
	}
}

// TestResumeRejectsShortGPVector: a mid-stage snapshot whose optimizer
// or best-solution vector is short of the stage's 2n coordinates is
// refused with an error, for each of the four vectors, instead of
// panicking inside the Nesterov update, and before any of the caller's
// cells moves.
func TestResumeRejectsShortGPVector(t *testing.T) {
	for _, name := range gpVectorNames {
		st := stateOf(t, checkpoint.PhaseMGP)
		v := gpVectors(st.GP)[name]
		*v = (*v)[:len(*v)-1]
		fo := hostileOpts()
		fo.Resume = st
		d := synth.Generate(hostileSpec)
		before := d.Positions(d.Movable())
		_, err := PlaceContext(context.Background(), d, fo)
		if err == nil || !strings.Contains(err.Error(), name+" holds") {
			t.Errorf("resume with a short %s: error %v", name, err)
		}
		if !slices.Equal(before, d.Positions(d.Movable())) {
			t.Errorf("a resume refused for a short %s moved the caller's cells", name)
		}
	}
	if err := resumeFrom(stateOf(t, checkpoint.PhaseMGP)); err != nil {
		t.Errorf("resume from the intact snapshot: %v", err)
	}
}

// TestResumeRejectsBadAlpha: a mid-stage snapshot whose steplength
// prediction is NaN, infinite or negative is refused with an
// *checkpoint.AlphaError before the resume restores any position.
func TestResumeRejectsBadAlpha(t *testing.T) {
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		st := stateOf(t, checkpoint.PhaseMGP)
		st.GP.Nesterov.Alpha = a
		d := synth.Generate(hostileSpec)
		before := d.Positions(d.Movable())
		fo := hostileOpts()
		fo.Resume = st
		_, err := PlaceContext(context.Background(), d, fo)
		if ae := (*checkpoint.AlphaError)(nil); !errors.As(err, &ae) {
			t.Errorf("resume with Alpha %v: error %v, want an *checkpoint.AlphaError", a, err)
		}
		if !slices.Equal(before, d.Positions(d.Movable())) {
			t.Errorf("a snapshot with Alpha %v moved cells", a)
		}
	}
}

// TestResumeRejectsMidStageWithoutGP: a mid-stage snapshot with no GP
// state is refused with a *PhaseStateError before any cell moves,
// instead of re-running its stage cold.
func TestResumeRejectsMidStageWithoutGP(t *testing.T) {
	st := stateOf(t, checkpoint.PhaseMGP)
	st.GP = nil
	checkPhaseStateError(t, st, true)
}

// TestResumeRejectsBoundaryWithGP: a stage-boundary snapshot that
// carries GP state is refused with a *PhaseStateError before any cell
// moves, instead of ignoring the state.
func TestResumeRejectsBoundaryWithGP(t *testing.T) {
	st := stateOf(t, checkpoint.PhasePostMGP)
	st.GP = stateOf(t, checkpoint.PhaseMGP).GP
	checkPhaseStateError(t, st, false)
}

// checkPhaseStateError resumes the hostile flow from st and wants a
// *PhaseStateError with the given Mid and the caller's cells unmoved.
func checkPhaseStateError(t *testing.T, st *checkpoint.State, mid bool) {
	t.Helper()
	d := synth.Generate(hostileSpec)
	before := d.Positions(d.Movable())
	fo := hostileOpts()
	fo.Resume = st
	_, err := PlaceContext(context.Background(), d, fo)
	if pe := (*PhaseStateError)(nil); !errors.As(err, &pe) || pe.Phase != st.Phase || pe.Mid != mid {
		t.Errorf("resume from phase %q: error %v, want a *PhaseStateError with Mid %v", st.Phase, err, mid)
	}
	if !slices.Equal(before, d.Positions(d.Movable())) {
		t.Errorf("a refused %q snapshot moved the caller's cells", st.Phase)
	}
}

// gpVectorNames lists the four coordinate vectors of a GP snapshot.
var gpVectorNames = []string{"U", "V", "GradV", "Best"}

// gpVectors names the four coordinate vectors of a GP snapshot.
func gpVectors(gp *checkpoint.GPState) map[string]*[]float64 {
	n := &gp.Nesterov
	return map[string]*[]float64{"U": &n.U, "V": &n.V, "GradV": &n.GradV, "Best": &gp.Best}
}

// resize returns x grown (by repeating its last value, or 0) or cut by
// delta entries, never below empty.
func resize(x []float64, delta int) []float64 {
	if delta < 0 {
		return x[:max(0, len(x)+delta)]
	}
	fill := 0.0
	if len(x) > 0 {
		fill = x[len(x)-1]
	}
	for ; delta > 0; delta-- {
		x = append(x, fill)
	}
	return x
}

// FuzzCheckpointRestore corrupts real snapshots of a small flow — the
// lengths of X, Y and one GP vector, and one position and one GP value,
// the optimizer's steplength prediction Alpha among them — and drives
// each through WarmStart and through a resume. It
// builds the State directly: random bytes would stop at the CRC before
// they reached restore. Either call may refuse the snapshot; neither may
// panic.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add(uint8(0), int8(0), int8(0), uint8(0), int8(0), uint16(0), 0.0)
	f.Add(uint8(1), int8(0), int8(-1), uint8(0), int8(0), uint16(3), 1.5)
	f.Add(uint8(1), int8(0), int8(0), uint8(2), int8(-1), uint16(7), 2.0)
	f.Add(uint8(1), int8(2), int8(2), uint8(3), int8(4), uint16(1), -1e300)
	f.Add(uint8(4), int8(-5), int8(0), uint8(1), int8(0), uint16(2), 0.0)
	f.Add(uint8(1), int8(0), int8(0), uint8(4), int8(0), uint16(0), math.NaN())
	f.Fuzz(func(t *testing.T, which uint8, dx, dy int8, vec uint8, dvec int8, at uint16, val float64) {
		states := hostileStates(t)
		st := cloneState(states[int(which)%len(states)])
		st.X = resize(st.X, int(dx))
		st.Y = resize(st.Y, int(dy))
		if len(st.X) > 0 {
			st.X[int(at)%len(st.X)] = val
		}
		if st.GP != nil {
			// vec picks one of the four vectors, or Alpha.
			if k := int(vec) % (len(gpVectorNames) + 1); k < len(gpVectorNames) {
				v := gpVectors(st.GP)[gpVectorNames[k]]
				*v = resize(*v, int(dvec))
				if len(*v) > 0 {
					(*v)[int(at)%len(*v)] = val
				}
			} else {
				st.GP.Nesterov.Alpha = val
			}
		}
		_ = WarmStart(synth.Generate(hostileSpec), st)
		_ = resumeFrom(st)
	})
}
