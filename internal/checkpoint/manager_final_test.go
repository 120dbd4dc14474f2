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
