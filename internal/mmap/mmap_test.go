package mmap

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func modes(t *testing.T) []Mode {
	t.Helper()
	ms := []Mode{ModeHeap}
	if osMapSupported {
		ms = append(ms, ModeOS)
	}
	return ms
}

func modeName(m Mode) string {
	switch m {
	case ModeOS:
		return "os"
	case ModeHeap:
		return "heap"
	default:
		return "auto"
	}
}

func TestCreateWriteReopen(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(modeName(mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.bin")
			m, err := Create(path, 4096, Options{Mode: mode})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			copy(m.Bytes(), []byte("hello gpsa"))
			if err := m.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			r, err := Open(path, Options{Mode: mode})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			if got := string(r.Bytes()[:10]); got != "hello gpsa" {
				t.Fatalf("reopened contents = %q, want %q", got, "hello gpsa")
			}
			if r.Writable() {
				t.Fatal("read-only open reports writable")
			}
		})
	}
}

func TestCreateRejectsBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if _, err := Create(path, 0, Options{}); err == nil {
		t.Fatal("Create with size 0 succeeded, want error")
	}
	if _, err := Create(path, -5, Options{}); err == nil {
		t.Fatal("Create with negative size succeeded, want error")
	}
}

func TestOpenMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Fatal("Open missing file succeeded")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty, Options{}); err == nil {
		t.Fatal("Open empty file succeeded, want error")
	}
}

func TestSyncOnReadOnlyFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	m, err := Create(path, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(); err == nil {
		t.Fatal("Sync on read-only map succeeded, want error")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	m, err := Create(path, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := m.Sync(); err == nil {
		t.Fatal("Sync after Close succeeded, want error")
	}
}

func TestUint64View(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(modeName(mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.bin")
			m, err := Create(path, 8*16, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.Uint64s(0, 16)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w {
				w[i] = uint64(i) * 0x0101010101010101
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				got := binary.LittleEndian.Uint64(raw[8*i:])
				want := uint64(i) * 0x0101010101010101
				if got != want {
					t.Fatalf("word %d = %#x, want %#x", i, got, want)
				}
			}
		})
	}
}

func TestViewBoundsChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	m, err := Create(path, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cases := []struct{ off, n int64 }{
		{-8, 1}, {0, -1}, {0, 9}, {64, 1}, {3, 1},
	}
	for _, c := range cases {
		if _, err := m.Uint64s(c.off, c.n); err == nil {
			t.Errorf("Uint64s(%d, %d) succeeded, want error", c.off, c.n)
		}
	}
	if v, err := m.Uint64s(0, 0); err != nil || v != nil {
		t.Errorf("Uint64s(0,0) = %v, %v; want nil, nil", v, err)
	}
	if _, err := m.Uint32s(2, 1); err == nil {
		t.Error("Uint32s misaligned offset succeeded, want error")
	}
	if _, err := m.Uint32s(0, 17); err == nil {
		t.Error("Uint32s out of range succeeded, want error")
	}
}

func TestHeapWriteBackOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	m, err := Create(path, 32, Options{Mode: ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Bytes(), []byte("persisted-without-sync"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("persisted-without-sync")) {
		t.Fatalf("heap map contents not written back on Close: %q", raw[:22])
	}
}

// Property: any byte pattern written through a mapping is read back
// identically after close/reopen, for both backings.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	fn := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		i++
		path := filepath.Join(dir, "p"+modeName(Mode(i%2))+string(rune('a'+i%26)))
		mode := ModeHeap
		if osMapSupported && i%2 == 0 {
			mode = ModeOS
		}
		m, err := Create(path, int64(len(data)), Options{Mode: mode})
		if err != nil {
			t.Logf("create: %v", err)
			return false
		}
		copy(m.Bytes(), data)
		if err := m.Close(); err != nil {
			t.Logf("close: %v", err)
			return false
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return bytes.Equal(raw, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	for _, mode := range modes(t) {
		m, err := Create(path, 4096, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Access{AccessNormal, AccessSequential, AccessRandom} {
			if err := m.Advise(p); err != nil {
				t.Fatalf("Advise(%v) on %s map: %v", p, modeName(mode), err)
			}
		}
		if osMapSupported && mode == ModeOS {
			if err := m.Advise(Access(99)); err == nil {
				t.Fatal("Advise with bogus pattern succeeded")
			}
		}
		m.Close()
	}
}

func TestLenAndUint32View(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	m, err := Create(path, 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 128 {
		t.Fatalf("Len = %d, want 128", m.Len())
	}
	w, err := m.Uint32s(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	w[0], w[1], w[2] = 1, 2, 3
	raw := m.Bytes()
	if binary.LittleEndian.Uint32(raw[4:]) != 1 || binary.LittleEndian.Uint32(raw[12:]) != 3 {
		t.Fatal("Uint32 view not aliased to mapping")
	}
	if v, err := m.Uint32s(0, 0); err != nil || v != nil {
		t.Fatalf("Uint32s(0,0) = %v, %v", v, err)
	}
	if _, err := m.Uint32s(-4, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
}
