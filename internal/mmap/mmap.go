// Package mmap provides memory-mapped file access for the GPSA storage
// layer.
//
// GPSA leans on the operating system's virtual memory subsystem instead of
// explicit buffer management: the vertex value file is mapped read-write so
// that dispatchers and computing workers can access values at random with
// demand paging, and the CSR edge file is mapped read-only and streamed
// sequentially. On platforms (or in tests) where a real mapping is not
// wanted, a heap-backed mapping offers the same interface with explicit
// read/write-back semantics.
package mmap

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/diskio"
	"repro/internal/fault"
)

// closeJoin closes f on a constructor error path, joining the close error
// into the primary one so a failing close is never silently dropped.
func closeJoin(err error, f *os.File) error {
	return errors.Join(err, f.Close())
}

// Mode selects how a Map is backed.
type Mode int

const (
	// ModeAuto uses a real OS memory mapping when the platform supports
	// it, falling back to a heap buffer otherwise.
	ModeAuto Mode = iota
	// ModeOS forces a real memory mapping and fails if unsupported.
	ModeOS
	// ModeHeap reads the file into an anonymous buffer; Sync writes the
	// buffer back with pwrite. Useful for tests and as a portability
	// fallback (it exercises the same call sites).
	ModeHeap
)

// Map is a byte-addressable view of a file.
//
// The zero value is not usable; obtain a Map from Open or Create. A Map is
// safe for concurrent readers. Concurrent writers must coordinate among
// themselves (the GPSA engine partitions slots across workers so writers
// never overlap).
type Map struct {
	mu       sync.Mutex
	f        *os.File
	data     []byte
	heap     bool // heap-backed: Sync must write back
	writable bool
	closed   bool
}

// Options configures Open and Create.
type Options struct {
	// Writable maps the file read-write. Read-only maps reject Sync.
	Writable bool
	// Mode selects the backing strategy. The zero value is ModeAuto.
	Mode Mode
}

// Create creates (or truncates) the file at path with the given size and
// maps it writable. Size must be positive.
func Create(path string, size int64, opts Options) (*Map, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmap: create %s: non-positive size %d", path, size)
	}
	f, err := diskio.OpenRaw(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mmap: create: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		return nil, closeJoin(fmt.Errorf("mmap: truncate %s to %d: %w", path, size, err), f)
	}
	opts.Writable = true
	m, err := newMap(f, size, opts)
	if err != nil {
		return nil, closeJoin(err, f)
	}
	return m, nil
}

// Open maps an existing file in its entirety.
func Open(path string, opts Options) (*Map, error) {
	flag := os.O_RDONLY
	if opts.Writable {
		flag = os.O_RDWR
	}
	f, err := diskio.OpenRaw(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("mmap: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, closeJoin(fmt.Errorf("mmap: stat %s: %w", path, err), f)
	}
	if st.Size() == 0 {
		return nil, closeJoin(fmt.Errorf("mmap: open %s: empty file", path), f)
	}
	m, err := newMap(f, st.Size(), opts)
	if err != nil {
		return nil, closeJoin(err, f)
	}
	return m, nil
}

func newMap(f *os.File, size int64, opts Options) (*Map, error) {
	if size > int64(maxMapSize) {
		return nil, fmt.Errorf("mmap: %s: size %d exceeds platform limit", f.Name(), size)
	}
	switch opts.Mode {
	case ModeHeap:
		return newHeapMap(f, size, opts.Writable)
	case ModeOS:
		return newOSMap(f, size, opts.Writable)
	default:
		if osMapSupported {
			return newOSMap(f, size, opts.Writable)
		}
		return newHeapMap(f, size, opts.Writable)
	}
}

func newHeapMap(f *os.File, size int64, writable bool) (*Map, error) {
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, fmt.Errorf("mmap: heap read %s: %w", f.Name(), err)
	}
	return &Map{f: f, data: buf, heap: true, writable: writable}, nil
}

// Bytes returns the mapped contents. The slice is valid until Close.
func (m *Map) Bytes() []byte { return m.data }

// Len returns the length of the mapping in bytes.
func (m *Map) Len() int { return len(m.data) }

// Writable reports whether the mapping accepts writes.
func (m *Map) Writable() bool { return m.writable }

// Sync flushes modified pages back to the file. For heap-backed maps this
// writes the whole buffer with pwrite followed by fsync; for OS maps it
// issues msync.
func (m *Map) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("mmap: sync on closed map")
	}
	if !m.writable {
		return fmt.Errorf("mmap: sync on read-only map")
	}
	if ferr := fault.Error(fault.SiteMmapSync); ferr != nil {
		return fmt.Errorf("mmap: sync %s: %w", m.f.Name(), ferr)
	}
	if ferr := diskio.SyncFault(m.f.Name()); ferr != nil {
		return fmt.Errorf("mmap: sync %s: %w", m.f.Name(), ferr)
	}
	if m.heap {
		if _, err := m.f.WriteAt(m.data, 0); err != nil {
			return fmt.Errorf("mmap: write-back: %w", diskio.Classify("write", m.f.Name(), err))
		}
		return diskio.Classify("sync", m.f.Name(), m.f.Sync())
	}
	return diskio.Classify("sync", m.f.Name(), m.msync())
}

// SyncRange flushes only the byte range [off, off+n) of the mapping back
// to the file. Ranged syncs are what lets the vertex value file enforce
// write ordering — columns before header seal — without paying a
// whole-file msync per transition. For heap-backed maps the range is
// written back with pwrite followed by fsync; for OS maps msync is issued
// on the page-aligned span covering the range.
func (m *Map) SyncRange(off, n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("mmap: sync on closed map")
	}
	if !m.writable {
		return fmt.Errorf("mmap: sync on read-only map")
	}
	if off < 0 || n < 0 || off+n > int64(len(m.data)) {
		return fmt.Errorf("mmap: sync range [%d, +%d) out of range (len %d)", off, n, len(m.data))
	}
	if n == 0 {
		return nil
	}
	if ferr := fault.Error(fault.SiteMmapSync); ferr != nil {
		return fmt.Errorf("mmap: sync %s: %w", m.f.Name(), ferr)
	}
	if ferr := diskio.SyncFault(m.f.Name()); ferr != nil {
		return fmt.Errorf("mmap: sync %s: %w", m.f.Name(), ferr)
	}
	if m.heap {
		if _, err := m.f.WriteAt(m.data[off:off+n], off); err != nil {
			return fmt.Errorf("mmap: write-back: %w", diskio.Classify("write", m.f.Name(), err))
		}
		return diskio.Classify("sync", m.f.Name(), m.f.Sync())
	}
	return diskio.Classify("sync", m.f.Name(), m.msyncRange(off, n))
}

// Close unmaps the file and closes the underlying descriptor. Writable
// OS mappings are msync'd first; heap mappings are written back.
func (m *Map) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var firstErr error
	if m.writable {
		if m.heap {
			if _, err := m.f.WriteAt(m.data, 0); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			if err := m.msync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if !m.heap {
		if err := m.munmap(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.data = nil
	if err := m.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Access describes an expected access pattern for Advise.
type Access int

// Access patterns accepted by Advise.
const (
	AccessNormal Access = iota
	AccessSequential
	AccessRandom
)
