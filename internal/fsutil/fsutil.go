// Package fsutil holds the small filesystem-durability helpers shared by
// the model writer (internal/core) and the interaction feed
// (internal/feed).
package fsutil

import (
	"fmt"
	"os"
)

// Record, when set, is told of every step the model save and the feed
// take to make bytes durable, after the step succeeded and in the order
// they took them: "write" (the file's bytes are with the OS), "fsync" (of
// the file), "rename" (to its final path) and "syncdir" (of the
// directory), each with the path it acted on. It is nil in production;
// tests set it to assert the order and which directory was synced.
var Record func(op, path string)

func record(op, path string) {
	if Record != nil {
		Record(op, path)
	}
}

// Wrote reports that the bytes written to path are with the OS.
func Wrote(path string) { record("write", path) }

// Sync fsyncs f.
func Sync(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	record("fsync", f.Name())
	return nil
}

// Rename renames oldpath to newpath.
func Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	record("rename", newpath)
	return nil
}

// SyncDir fsyncs a directory, making previously renamed or created
// entries durable: without it a crash can roll back a rename (or make a
// freshly created file vanish) when the directory's dirty metadata is
// lost.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	record("syncdir", dir)
	return nil
}
