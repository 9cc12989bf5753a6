//go:build unix

package stream

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only. The mapping
// outlives f's descriptor; unmap releases it.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmap(img []byte) error { return syscall.Munmap(img) }
