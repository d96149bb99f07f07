package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the boundary. Parent 0 marks a root; the spans of one job share
// that root. Counts carry the work done inside the interval (edges,
// messages, bytes), so ratios are taken where the work happens.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced run shares the traced
// run's code without paying for it.
type recorder struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name, StartNS: now, EndNS: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// add records a span whose interval was measured by the callee (a
// superstep's StepStats.Duration) and is only reported after the fact.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()})
	return id
}

func (r *recorder) count(id int, key string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its direct children cover.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// residualShare is the share of root's interval that no child span
// covers: the time the outside view cannot attribute to a layer.
func residualShare(spans []span, root int) float64 {
	for _, s := range spans {
		if s.ID == root && s.dur() > 0 {
			return float64(selfTimes(spans)[root]) / float64(s.dur())
		}
	}
	return 0
}

// checkNesting verifies the two properties the self-time arithmetic
// rests on: a child lies inside its parent, and siblings do not overlap.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for parent, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNS < ks[j].StartNS })
		for i, k := range ks {
			if p, ok := byID[parent]; ok && (k.StartNS < p.StartNS || k.EndNS > p.EndNS) {
				return fmt.Errorf("span %d (%s) exceeds its parent %d (%s)", k.ID, k.Name, p.ID, p.Name)
			}
			if parent != 0 && i > 0 && k.StartNS < ks[i-1].EndNS {
				return fmt.Errorf("span %d (%s) overlaps its sibling %d (%s)", k.ID, k.Name, ks[i-1].ID, ks[i-1].Name)
			}
		}
	}
	return nil
}

// layerOf maps a span name to its layer: the module name before the
// first dot ("core.step" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelfMS sums self time per layer over the subtree under root, in
// milliseconds. The root's own self time is reported as "residual".
func layerSelfMS(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	under := func(id int) bool {
		for id != 0 {
			if id == root {
				return true
			}
			id = parent[id]
		}
		return false
	}
	out := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.ID == root:
			out["residual"] += float64(self[s.ID]) / 1e6
		case under(s.ID):
			out[layerOf(s.Name)] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}

// durationsMS lists the durations of every span called name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
