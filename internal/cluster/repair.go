package cluster

import (
	"errors"
	"fmt"

	"repro/internal/vertexfile"
)

// Offline interval re-fetch: rebuilding a quarantined node value file
// from the sealed files of live peers, reusing the MIGRATE data plane's
// interval blobs (ExtractInterval/AdoptInterval). The scrubber calls
// this after quarantining a value file whose sealed column digest no
// longer matches its bytes — at-rest bit-rot — because every interval
// the corrupt file was authoritative for still has a bit-identical
// copy wherever a peer's sealed file owns or mirrors it. A rebuilt
// file is indistinguishable from one the node computed itself: the
// blobs carry payload and active flag verbatim, and AdoptInterval
// installs the stale update-column copy reconcile would have left.

// ErrNoReplica is returned when a needed interval has no live sealed
// replica: repair is impossible and the job must be recomputed from
// seed input. The scrubber surfaces it as an actionable finding rather
// than retrying.
var ErrNoReplica = errors.New("cluster: no live replica holds the interval; recompute from seed")

// IntervalSource names a healthy sealed value file holding the
// authoritative state of vertices [First, End). An empty Path records
// that no replica survives for the range.
type IntervalSource struct {
	First, End int64
	Path       string
}

// epochError reports a value file that cannot be sealed at the barrier
// epoch a node or a salvage needs: after Recover and a one-step Rewind it
// still sits at epoch, not want. A coordinated commit leaves a file at
// most one epoch ahead of the barrier, so anything else is a file this
// run did not seal.
type epochError struct {
	path        string
	epoch, want int64
}

func (e *epochError) Error() string {
	return fmt.Sprintf("cluster: %s is sealed at epoch %d, want %d", e.path, e.epoch, e.want)
}

// sealedAt opens the value file at path sealed at barrier epoch step —
// the one way a file left by a dead incarnation is brought back, whether
// a same-id replacement boots from it or a salvage extracts its
// intervals. A torn superstep is recovered; a file that already
// committed step (its node died after the local commit of an attempt
// the cluster then rolled back) is rewound to it. Any other epoch is an
// *epochError.
func sealedAt(path string, step int64) (*vertexfile.File, error) {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return nil, err
	}
	if vf.InProgress() {
		_, err = vf.Recover()
	}
	if err == nil && vf.Epoch() == step+1 {
		err = vf.Rewind(step)
	}
	if err == nil && vf.Epoch() != step {
		err = &epochError{path: path, epoch: vf.Epoch(), want: step}
	}
	if err != nil {
		closeQuietly(vf)
		return nil, err
	}
	return vf, nil
}

// freshAt creates a value file at path whose every vertex holds its
// initial payload and sits inert at epoch step (FastForward), ready for
// AdoptInterval to paint in the ranges it will own. At step 0 it is
// exactly the job-start file.
func freshAt(path string, numVertices int64, init func(v int64) (payload uint64, active bool), step int64) (*vertexfile.File, error) {
	vf, err := vertexfile.Create(path, numVertices, init)
	if err != nil {
		return nil, err
	}
	if err := vf.FastForward(step, true); err != nil {
		closeQuietly(vf)
		return nil, err
	}
	return vf, nil
}

// StaticOwners reproduces Run's initial interval-to-node assignment
// (contiguous ascending runs, nivs intervals over nodes nodes) so an
// offline repair of a run without membership events can locate each
// interval's owner file without the coordinator's routing table.
func StaticOwners(nivs, nodes int) []int {
	if nodes > nivs {
		nodes = nivs
	}
	owners := make([]int, nivs)
	for iv := range owners {
		owners[iv] = iv * nodes / nivs
	}
	return owners
}

// RepairValuesFile rebuilds the node value file at path from the
// sealed files of live peers: a fresh file at epoch (freshAt, exactly as
// a joining node builds it) adopts every interval in sources, extracted
// from its owner. The caller has already quarantined the
// corrupt original — path is created anew. Each source file must be
// sealed (no superstep in progress) at the same epoch; a source that
// is itself unreadable or corrupt fails the repair with its own typed
// error, and a source with no path fails with ErrNoReplica.
func RepairValuesFile(path string, numVertices, epoch int64, init func(v int64) (payload uint64, active bool), sources []IntervalSource) error {
	blobs := make([][]byte, len(sources))
	peers := make(map[string]*vertexfile.File)
	defer func() {
		//lint:determinism close order of read-only replica handles has no observable effect on the repaired file
		for _, vf := range peers {
			closeQuietly(vf)
		}
	}()
	for k, src := range sources {
		if src.Path == "" {
			return fmt.Errorf("cluster: repair of %s: interval [%d,%d): %w", path, src.First, src.End, ErrNoReplica)
		}
		vf := peers[src.Path]
		if vf == nil {
			var err error
			vf, err = vertexfile.Open(src.Path)
			if err != nil {
				return fmt.Errorf("cluster: repair of %s: opening replica %s: %w", path, src.Path, err)
			}
			peers[src.Path] = vf
			if vf.InProgress() {
				return fmt.Errorf("cluster: repair of %s: replica %s records an in-progress superstep; repair is barrier-only", path, src.Path)
			}
			if vf.Epoch() != epoch {
				return fmt.Errorf("cluster: repair of %s: replica %s sealed at epoch %d, want %d", path, src.Path, vf.Epoch(), epoch)
			}
		}
		blob, err := vf.ExtractInterval(src.First, src.End)
		if err != nil {
			return fmt.Errorf("cluster: repair of %s: %w", path, err)
		}
		blobs[k] = blob
	}

	out, err := freshAt(path, numVertices, init, epoch)
	if err != nil {
		return fmt.Errorf("cluster: repair of %s: %w", path, err)
	}
	for _, blob := range blobs {
		if err := out.AdoptInterval(blob, true); err != nil {
			closeQuietly(out)
			return fmt.Errorf("cluster: repair of %s: %w", path, err)
		}
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("cluster: repair of %s: %w", path, err)
	}
	return nil
}
