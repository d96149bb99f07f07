package algorithms

import (
	"repro/internal/graph"
)

// LabelPropagation is a semi-synchronous community-detection extension
// (beyond the paper's workloads): every vertex starts in its own
// community and repeatedly adopts the smallest community label among the
// offers it receives, but — unlike ConnectedComponents — an offer is only
// accepted from a neighbor whose label is at most Rounds hops of
// propagation old, bounding how far labels bleed. With Rounds large it
// degenerates to connected components; with small Rounds it yields local
// communities.
//
// Offers combine to the smallest label and, on equal labels, the larger
// TTL: the offer that can still travel furthest, which is what "at most
// Rounds hops" means. In a run without conservative recovery the
// tie-break never decides — a vertex dispatches in superstep s only if
// it adopted an offer of superstep s-1, so every offer generated in
// superstep s carries TTL Rounds-s-1. After a conservative recovery
// re-activates every vertex, equal labels with different TTLs do meet,
// and the larger TTL wins whatever order the offers arrive in.
//
// Payload layout: label (low 32 bits) | remaining TTL (next 16 bits).
type LabelPropagation struct {
	// Rounds is the label time-to-live (default 3).
	Rounds uint16
}

func (l LabelPropagation) rounds() uint64 {
	if l.Rounds == 0 {
		return 3
	}
	return uint64(l.Rounds)
}

func lpPack(label uint64, ttl uint64) uint64 { return label&0xFFFFFFFF | ttl<<32 }
func lpLabel(p uint64) uint64                { return p & 0xFFFFFFFF }
func lpTTL(p uint64) uint64                  { return (p >> 32) & 0xFFFF }

// LPLabelOf decodes the community label from a payload.
func LPLabelOf(payload uint64) graph.VertexID { return graph.VertexID(lpLabel(payload)) }

// Init assigns every vertex its own community with a full TTL.
func (l LabelPropagation) Init(v int64) (uint64, bool) {
	return lpPack(uint64(v), l.rounds()), true
}

// GenMsg offers the label with a decremented TTL; exhausted labels stop
// propagating.
func (l LabelPropagation) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	ttl := lpTTL(payload)
	if ttl == 0 {
		return 0, false
	}
	return lpPack(lpLabel(payload), ttl-1), true
}

// Compute adopts a strictly smaller label (the TTL rides along with it).
func (l LabelPropagation) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	if lpLabel(msg) < lpLabel(cur) {
		return msg, true
	}
	return cur, false
}

// CombineMsg keeps the smaller label; on equal labels, the larger TTL.
func (l LabelPropagation) CombineMsg(a, b uint64) uint64 {
	switch la, lb := lpLabel(a), lpLabel(b); {
	case la < lb:
		return a
	case lb < la:
		return b
	case lpTTL(b) > lpTTL(a):
		return b
	}
	return a
}
