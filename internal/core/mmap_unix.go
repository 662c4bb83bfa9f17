//go:build unix

package core

import (
	"os"
	"syscall"
)

// mmapFileAt maps length bytes of f read-only, starting at the
// page-aligned byte offset off — one window of a model range. The mapping
// outlives f's file descriptor, and — because the mapping pins the inode —
// also survives the file being renamed over or unlinked, which is exactly
// the atomic model-swap discipline of SaveModelFile.
func mmapFileAt(f *os.File, off int64, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), off, length, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
