package core

// Combiner is an optional Program extension (Pregel's message combiner):
// when a program's Compute is insensitive to replacing two messages for
// the same destination with CombineMsg of them, dispatchers fold
// same-destination messages into one dense slab entry at the source
// (see accum.go) and computing workers receive one pre-combined message
// per vertex. Min-folds (BFS, CC, SSSP) combine with min; PageRank's
// accumulation combines with float sum.
//
// Implementing Combiner is what selects the slab message path; a
// program without it takes the per-message batch path.
type Combiner interface {
	CombineMsg(a, b uint64) uint64
}

// CombineBatch sorts a batch by destination and merges duplicates with
// the combiner. It returns the (shortened) batch. The engine itself
// never calls it — combiner programs fold into dense slabs instead — it
// is exported for the distributed engine (package cluster), which
// combines before putting batches on the wire.
//
// The sort is stable so same-destination messages fold in generation
// order — the same left-fold the dense slabs perform — keeping the
// result deterministic and alignable with them even for
// non-commutative combiners and float sums.
func CombineBatch(batch []Message, c Combiner) []Message {
	if len(batch) < 2 {
		return batch
	}
	sortMessagesByDst(batch, make([]Message, len(batch)))
	out := batch[:1]
	for _, m := range batch[1:] {
		last := &out[len(out)-1]
		if m.Dst == last.Dst {
			last.Val = c.CombineMsg(last.Val, m.Val)
			continue
		}
		out = append(out, m)
	}
	return out
}

// sortMessagesByDst stable-sorts ms by destination using scratch (cap
// >= len(ms)) — a bottom-up merge sort that allocates nothing, unlike
// sort.SliceStable whose closure and swapper escape on every call.
// Stability is what keeps same-destination messages folding in
// generation order, aligning CombineBatch bit-for-bit with the dense
// slabs even for float sums.
//
//gpsa:noalloc
func sortMessagesByDst(ms, scratch []Message) {
	n := len(ms)
	if n < 2 {
		return
	}
	const runLen = 24
	for lo := 0; lo < n; lo += runLen {
		hi := lo + runLen
		if hi > n {
			hi = n
		}
		// Insertion sort is stable.
		for i := lo + 1; i < hi; i++ {
			m := ms[i]
			j := i
			for j > lo && ms[j-1].Dst > m.Dst {
				ms[j] = ms[j-1]
				j--
			}
			ms[j] = m
		}
	}
	scratch = scratch[:cap(scratch)]
	for width := runLen; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if hi > n {
				hi = n
			}
			// Merge ms[lo:mid] and ms[mid:hi], left side first on ties.
			copy(scratch, ms[lo:mid])
			l, r, o := 0, mid, lo
			left := scratch[:mid-lo]
			for l < len(left) && r < hi {
				if ms[r].Dst < left[l].Dst {
					ms[o] = ms[r]
					r++
				} else {
					ms[o] = left[l]
					l++
				}
				o++
			}
			for l < len(left) {
				ms[o] = left[l]
				l++
				o++
			}
		}
	}
}
