package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/algorithms"
	"repro/internal/vertexfile"
)

// payloadsDigest is gpsa.Values.Digest (FNV-1a over the little-endian
// payload words) computed from the oracle's values instead of a value
// file, so a serve job's values_digest can be checked without running
// the engine a second time.
func payloadsDigest(payloads []uint64) string {
	h := uint64(14695981039346656037)
	for _, w := range payloads {
		for b := 0; b < 8; b++ {
			h ^= (w >> (8 * b)) & 0xFF
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

func levelsPayloads(levels []int64) []uint64 {
	out := make([]uint64, len(levels))
	for i, l := range levels {
		if l < 0 {
			out[i] = algorithms.Unreached
		} else {
			out[i] = uint64(l)
		}
	}
	return out
}

func levelsDigest(levels []int64) string { return payloadsDigest(levelsPayloads(levels)) }

// readValueFile returns the committed payload of every vertex in the
// sealed value file at path.
func readValueFile(path string) ([]uint64, error) {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer vf.Close()
	if vf.InProgress() {
		return nil, fmt.Errorf("%s: an uncommitted superstep is recorded", path)
	}
	return vf.Values(), nil
}

// readPayloads reads the raw little-endian payload dump a cluster job
// child leaves behind (RunDistributed returns values, not a file).
func readPayloads(path string) ([]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

func writePayloads(path string, payloads []uint64) error {
	b := make([]byte, 8*len(payloads))
	for i, p := range payloads {
		binary.LittleEndian.PutUint64(b[8*i:], p)
	}
	return os.WriteFile(path, b, 0o644)
}

// checkRanks compares PageRank payloads with the serial oracle's. The
// engines fold float messages in worker order, so equality is up to
// 1e-9 relative, the tolerance the repo's own tests use.
func checkRanks(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(got), len(want))
	}
	for v := range got {
		g, w := algorithms.RankOf(got[v]), algorithms.RankOf(want[v])
		if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) || math.IsNaN(g) {
			return fmt.Errorf("vertex %d: rank %v, oracle %v", v, g, w)
		}
	}
	return nil
}

// checkLevels requires BFS payloads to equal the oracle's exactly.
func checkLevels(got []uint64, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(got), len(want))
	}
	for v, p := range levelsPayloads(want) {
		if got[v] != p {
			return fmt.Errorf("vertex %d: level payload %d, oracle %d", v, got[v], p)
		}
	}
	return nil
}
