package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"eplace/internal/checkpoint"
	"eplace/internal/eco"
	"eplace/internal/synth"
)

// TestServerECOChain covers the checkpoint-expiry bugfix end to end: an
// ECO job chains off a completed job's end-of-run checkpoint
// (latest.ckpt), an ECO job can itself parent another ECO job, and a
// parent whose checkpoints are gone is rejected with the typed
// ErrCheckpointExpired instead of an inconsistent 404.
func TestServerECOChain(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, WorkersPerJob: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	parent, err := s.Submit(JobSpec{
		Synth:    &synth.Spec{Name: "eco-parent", NumCells: 300, Seed: 5},
		MaxIters: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	pst := waitJob(t, s, parent.ID, "done", terminal)
	if pst.State != StateDone {
		t.Fatalf("parent ended %s: %s", pst.State, pst.Error)
	}
	ckptDir := filepath.Join(s.JobDir(parent.ID), "ckpt")

	child, err := s.Submit(JobSpec{ECO: &ECOSpec{
		FromJob: parent.ID,
		Edits: eco.Script{AddCells: []eco.AddCell{
			{Name: "eco_x", W: 2, H: 1, NetIDs: []int{0, 1}},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cst := waitJob(t, s, child.ID, "done", terminal)
	if cst.State != StateDone {
		t.Fatalf("eco child ended %s: %s", cst.State, cst.Error)
	}
	if cst.Result == nil || !cst.Result.Legal {
		t.Fatalf("eco child result = %+v", cst.Result)
	}
	if cst.Result.Iterations["active"] == 0 || cst.Result.Iterations["frozen"] == 0 {
		t.Fatalf("eco child did not split active/frozen: %v", cst.Result.Iterations)
	}

	// ECO off an ECO job: the lineage replays the ancestor edits. Its
	// iteration bound reaches eGP, which the block makes run: with fewer
	// iterations than the engine's minimum, eGP runs exactly that many.
	grand, err := s.Submit(JobSpec{ECO: &ECOSpec{
		FromJob: child.ID,
		Edits: eco.Script{
			ReweightNets: []eco.Reweight{{NetID: 2, Weight: 4}},
			BlockRegions: []eco.Block{{Lx: 30, Ly: 30, Hx: 40, Hy: 40}},
		},
		MaxIters: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	gst := waitJob(t, s, grand.ID, "done", terminal)
	if gst.State != StateDone {
		t.Fatalf("eco grandchild ended %s: %s", gst.State, gst.Error)
	}
	if got := gst.Result.Iterations["eGP"]; got != 3 {
		t.Errorf("eco grandchild ran %d eGP iterations, want its max_iters 3", got)
	}
	if gst.Result.Iterations["evicted"] == 0 {
		t.Errorf("eco grandchild's block evicted nothing: %v", gst.Result.Iterations)
	}

	// The completed parent's result must still be served...
	if st, err := s.Job(parent.ID); err != nil || st.Result == nil {
		t.Fatalf("parent result lost: %v %+v", err, st)
	}
	// ...but chaining off a job whose checkpoints are gone entirely is a
	// typed rejection, not a late 404.
	if err := os.RemoveAll(ckptDir); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobSpec{ECO: &ECOSpec{
		FromJob: parent.ID,
		Edits:   eco.Script{ReweightNets: []eco.Reweight{{NetID: 0, Weight: 2}}},
	}})
	if !errors.Is(err, ErrCheckpointExpired) {
		t.Fatalf("expired-checkpoint submit returned %v, want ErrCheckpointExpired", err)
	}

	// Unknown parents and non-done parents are rejected up front.
	if _, err := s.Submit(JobSpec{ECO: &ECOSpec{FromJob: "job-999999", Edits: eco.Script{}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown parent returned %v, want ErrNotFound", err)
	}
}

// TestServerECOIgnoresBackendStamp: an ECO job reads only its parent's
// final positions, so a parent whose final snapshot was decoded and
// written back through checkpoint.Encode still chains, and the child
// finishes legal.
func TestServerECOIgnoresBackendStamp(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, WorkersPerJob: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	parent, err := s.Submit(JobSpec{
		Synth:    &synth.Spec{Name: "eco-parent", NumCells: 300, Seed: 5},
		MaxIters: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pst := waitJob(t, s, parent.ID, "done", terminal); pst.State != StateDone {
		t.Fatalf("parent ended %s: %s", pst.State, pst.Error)
	}
	final := filepath.Join(s.JobDir(parent.ID), "ckpt", checkpoint.LatestName)
	st, err := checkpoint.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := checkpoint.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(final, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	child, err := s.Submit(JobSpec{ECO: &ECOSpec{
		FromJob: parent.ID,
		Edits:   eco.Script{ReweightNets: []eco.Reweight{{NetID: 0, Weight: 2}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cst := waitJob(t, s, child.ID, "done", terminal)
	if cst.State != StateDone || cst.Result == nil || !cst.Result.Legal {
		t.Fatalf("eco child ended %s (%q) with result %+v, want done and legal", cst.State, cst.Error, cst.Result)
	}
}
