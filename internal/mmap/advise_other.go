//go:build !linux

package mmap

// Advise is a no-op on platforms without madvise support.
func (m *Map) Advise(pattern Access) error { return nil }
