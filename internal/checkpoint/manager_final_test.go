package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestManagerSweepsOrphanedTemp is the regression test for the temp
// file leak: a crash between CreateTemp and the rename used to strand
// `.ckpt-*.tmp` files forever, because the deferred remove never runs
// on kill. Adopting the directory must collect them.
func TestManagerSweepsOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".ckpt-123456.tmp")
	if err := os.WriteFile(stale, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	keepers := []string{"latest.ckpt", "ckpt-000001.ckpt", "notes.txt"}
	for _, name := range keepers {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := NewManager(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived NewManager (stat err: %v)", err)
	}
	for _, name := range keepers {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("sweep removed %s: %v", name, err)
		}
	}
}

// TestPinFinalSurvivesLaterSaves: the pinned final checkpoint must
// outlive later saves replacing latest.ckpt.
func TestPinFinalSurvivesLaterSaves(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}

	st := sampleState()
	st.Phase = PhaseDone
	if err := m.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := m.PinFinal(); err != nil {
		t.Fatal(err)
	}

	// Later saves replace latest.
	later := sampleState()
	later.Phase = PhaseMGP
	later.MGPIterations = 99
	for i := 0; i < 4; i++ {
		if err := m.Save(later); err != nil {
			t.Fatal(err)
		}
	}

	got, err := m.LoadFinal()
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != PhaseDone || got.MGPIterations != st.MGPIterations {
		t.Fatalf("pinned final lost: phase %q iters %d", got.Phase, got.MGPIterations)
	}
	// Without a pinned final, LoadFinal falls back to latest.
	m2, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(later); err != nil {
		t.Fatal(err)
	}
	got, err = m2.LoadFinal()
	if err != nil {
		t.Fatal(err)
	}
	if got.MGPIterations != 99 {
		t.Fatalf("fallback to latest failed: %+v", got)
	}
}
