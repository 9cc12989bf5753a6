//go:build !unix

package stream

import (
	"errors"
	"os"
)

// mapFile maps nothing here: NewFileSource reads the file into the heap.
func mapFile(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmap([]byte) error { return nil }
