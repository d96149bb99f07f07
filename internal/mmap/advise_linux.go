//go:build linux

package mmap

import (
	"fmt"
	"syscall"
)

func adviceFor(pattern Access) (int, error) {
	switch pattern {
	case AccessSequential:
		return syscall.MADV_SEQUENTIAL, nil
	case AccessRandom:
		return syscall.MADV_RANDOM, nil
	case AccessNormal:
		return syscall.MADV_NORMAL, nil
	}
	return 0, fmt.Errorf("mmap: unknown access pattern %d", pattern)
}

// Advise hints the kernel about the mapping's access pattern via
// madvise(2). GPSA uses AccessSequential for the CSR edge file its
// dispatchers stream and AccessRandom for the vertex value file its
// computing workers probe.
func (m *Map) Advise(pattern Access) error {
	if m.heap || len(m.data) == 0 {
		return nil // heap-backed: nothing to advise
	}
	advice, err := adviceFor(pattern)
	if err != nil {
		return err
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MADVISE,
		uintptr(addrOf(m.data)), uintptr(len(m.data)), uintptr(advice))
	if errno != 0 {
		return fmt.Errorf("mmap: madvise: %w", errno)
	}
	return nil
}
