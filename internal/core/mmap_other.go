//go:build !unix

package core

import "os"

// mmapFileAt on platforms without a usable mmap reads the window into
// memory. OpenMappedModelRange then behaves like a copying loader with
// header-only validation — correct everywhere, O(1) reload only on unix.
func mmapFileAt(f *os.File, off int64, length int) ([]byte, error) {
	data := make([]byte, length)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
	}
	return data, nil
}

func munmapFile(data []byte) error {
	return nil
}
