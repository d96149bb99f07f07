package core

// Hooks for the external tests (package core_test), which may import
// the library programs.

var FoldProbes = foldProbes

func (f Fold) Combine(a, b uint64) uint64 { return f.combine(a, b) }
