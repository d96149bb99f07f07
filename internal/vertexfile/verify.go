package vertexfile

import (
	"encoding/binary"
	"fmt"

	"repro/internal/diskio"
)

// Verify performs a non-mutating integrity check of the value file at
// path — the scrubber's read side. Unlike Open, which maps the file
// writable and rolls back a torn header on the spot, Verify never
// writes: it reads the whole file through the diskio layer (so seeded
// bit-rot fires here) and re-derives every sealed invariant.
//
// The return contract mirrors what the caller should do:
//
//   - nil: the file is sealed and its column digest matches — healthy.
//   - nil with VerifyState "running"/"torn": the file records an
//     interrupted superstep; that is crash-recovery's job (Open +
//     Recover), not the scrubber's, and its bytes cannot be judged
//     against a seal that was never completed.
//   - an error matching diskio.ErrCorrupt: the sealed dispatch column
//     does not match its digest, or the structure is unparseable —
//     at-rest corruption Open would reject. Quarantine and repair.
//   - any other error: the read itself failed (EIO); the disk, not the
//     data, is the problem.
func Verify(path string) error {
	_, err := VerifyState(path)
	return err
}

// VerifyState is Verify with the file's observed state: "sealed",
// "running" (mid-superstep, skip), "torn" (awaiting rollback, skip).
// The state is only meaningful when err is nil.
func VerifyState(path string) (string, error) {
	b, err := diskio.ReadFile(path)
	if err != nil {
		return "", err
	}
	if int64(len(b)) < headerBytes {
		return "", fmt.Errorf("vertexfile: %s: truncated header: %w", path, diskio.ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(b[0:]) != fileMagic {
		return "", fmt.Errorf("vertexfile: %s: bad magic: %w", path, diskio.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != fileVersion {
		return "", fmt.Errorf("vertexfile: %s: unsupported version %d: %w", path, v, diskio.ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint64(b[8:]))
	if n <= 0 || n > maxVertices {
		return "", fmt.Errorf("vertexfile: %s: absurd vertex count %d: %w", path, n, diskio.ErrCorrupt)
	}
	if want := headerBytes + 8*bitmapWords(n) + 16*n; int64(len(b)) < want {
		return "", fmt.Errorf("vertexfile: %s: %d bytes, want %d for %d vertices: %w", path, len(b), want, n, diskio.ErrCorrupt)
	}

	header := make([]uint64, headerWords)
	for i := range header {
		header[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	sum := uint64(fnvOffset64)
	for i, w := range header {
		if i == hdrSum {
			continue
		}
		sum = fnvWord(sum, w)
	}
	epoch := int64(header[hdrEpoch])
	state := header[hdrState]
	if sum != header[hdrSum] || (state != stateClean && state != stateRunning) || epoch < 0 || epoch > maxEpoch {
		// A torn header is crash recovery's province: the seal never
		// completed, so there is no sealed claim for the scrubber to
		// falsify. (Bit-rot landing in the header also surfaces here —
		// Open's rollback handles it conservatively but correctly.)
		return "torn", nil
	}
	if state == stateRunning {
		return "running", nil
	}

	if want := header[hdrColDigest]; want != 0 {
		col := int64(DispatchCol(epoch))
		slotsOff := headerBytes + 8*bitmapWords(n)
		h := uint64(fnvOffset64)
		for v := int64(0); v < n; v++ {
			slot := binary.LittleEndian.Uint64(b[slotsOff+8*(2*v+col):])
			h += mix(v, Payload(slot))
		}
		if h != want {
			return "", fmt.Errorf("vertexfile: %s: column digest mismatch (%#x, header sealed %#x): %w",
				path, h, want, diskio.ErrCorrupt)
		}
	}
	return "sealed", nil
}
