package core

// denseSeg is one dense accumulator slab of the slab message path (a
// Combiner program's; others send per-message batches) for a single
// computing worker: vals[i] accumulates the combined message of the
// worker's i-th owned vertex (vertex i*Computers + worker), bits marks
// which slots are present. Each (dispatcher, computer) pair owns one for
// the engine's lifetime: the dispatcher hands it off at the end of its
// interval if anything landed, and the computer applies and resets it
// before acking the barrier, so the next superstep finds it empty.
type denseSeg struct {
	count int // present entries
	vals  []uint64
	bits  []uint64
}

func newDenseSeg(slots int64) *denseSeg {
	return &denseSeg{vals: make([]uint64, slots), bits: make([]uint64, (slots+63)/64)}
}

// poisonWord is the value poison-on-reset paints over a reset slab's
// values. It decodes to an absurd result for every shipped algorithm (a
// denormal-huge float, a ~4-billion BFS level), so leaks are loud.
const poisonWord uint64 = 0xDEADBEEFDEADBEEF

// poisonResets enables poison-on-reset. It defaults on under the race
// detector (poison_race.go) and off otherwise; tests may flip it.
var poisonResets = poisonDefault

// reset empties the slab. Values are meaningless wherever the presence
// bit is clear, so only the bitmap needs the memset, unless poison is
// on.
//
//gpsa:noalloc
func (s *denseSeg) reset() {
	clear(s.bits)
	s.count = 0
	if poisonResets {
		for i := range s.vals {
			s.vals[i] = poisonWord
		}
	}
}
