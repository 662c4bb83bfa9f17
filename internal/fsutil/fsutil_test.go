package fsutil

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSyncDir: the two things the callers rely on — syncing a directory
// after the create + rename they make durable succeeds, and a directory
// that is not there surfaces as os.ErrNotExist rather than a bare string.
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "model.bin.tmp")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "model.bin")); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir after create + rename: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir(missing) = %v, want an error wrapping os.ErrNotExist", err)
	}
}
