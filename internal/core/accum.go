package core

import "math/bits"

// Slab is a dense accumulator, the message path: Vals[i] accumulates the
// combined message of the slab's i-th vertex and Bits marks which slots
// are present. In core each (dispatcher, computer) pair owns one for the
// engine's lifetime, covering the computer's owned vertices (slot i is
// vertex i*Computers + computer): the dispatcher hands it off at the end
// of its interval, and the computer applies it in dispatcher order and
// resets it before acking the barrier, so the next superstep finds it
// empty. A cluster node owns one covering every vertex.
type Slab struct {
	Vals []uint64
	Bits []uint64
}

// NewSlab allocates an empty slab of the given number of slots.
func NewSlab(slots int64) *Slab {
	return &Slab{Vals: make([]uint64, slots), Bits: make([]uint64, (slots+63)/64)}
}

// Len returns how many slots are present.
func (s *Slab) Len() (n int) {
	for _, w := range s.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// poisonWord is the value poison-on-reset paints over a reset slab's
// values. It decodes to an absurd result for every shipped algorithm (a
// denormal-huge float, a ~4-billion BFS level), so leaks are loud.
const poisonWord uint64 = 0xDEADBEEFDEADBEEF

// poisonResets enables poison-on-reset. It defaults on under the race
// detector (poison_race.go) and off otherwise; tests may flip it.
var poisonResets = poisonDefault

// Reset empties the slab. Values are meaningless wherever the presence
// bit is clear, so only the bitmap needs the memset, unless poison is
// on.
//
//gpsa:noalloc
func (s *Slab) Reset() {
	clear(s.Bits)
	if poisonResets {
		for i := range s.Vals {
			s.Vals[i] = poisonWord
		}
	}
}
