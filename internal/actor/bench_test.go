package actor

import (
	"testing"
)

// BenchmarkMailboxPutGet measures raw per-message mailbox cost — the
// number behind the engine mailing one folded slab per computer per
// superstep rather than a message per edge (DESIGN.md "Message path").
func BenchmarkMailboxPutGet(b *testing.B) {
	mb := NewMailbox[int](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := mb.Get(); !ok {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mb.Put(i); err != nil {
			b.Fatal(err)
		}
	}
	mb.Close()
	<-done
}

// BenchmarkMailboxBatched shows the amortized cost when 512 messages ride
// one mailbox operation, as the engine's dispatchers do.
func BenchmarkMailboxBatched(b *testing.B) {
	const batch = 512
	mb := NewMailbox[[]int](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := mb.Get(); !ok {
				return
			}
		}
	}()
	buf := make([]int, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if err := mb.Put(buf); err != nil {
			b.Fatal(err)
		}
	}
	mb.Close()
	<-done
}

// BenchmarkSpawn measures actor creation cost (Kilim's "tasks start up
// quite fast" claim, §II-C).
func BenchmarkSpawn(b *testing.B) {
	s := NewSystem("bench", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpawnFunc("", func() error { return nil })
	}
	if err := s.Wait(); err != nil {
		b.Fatal(err)
	}
}
