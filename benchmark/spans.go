package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark's own code around public entry points —
// nothing inside the system under test knows about them.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's origin
	Parent     int           // index of the causing span, -1 for a root
	Pass       int           // the pass / block / epoch it belongs to
}

// spanRecorder keeps spans in memory until the run ends. A nil
// recorder records nothing, which is how untraced runs stay untouched.
type spanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent, pass int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), End: -1, Parent: parent, Pass: pass})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = time.Since(r.origin)
	return s.End - s.Start
}

// add records an already measured interval (used where the timed loop
// cannot afford a lock per call and keeps its own clock readings).
func (r *spanRecorder) add(name string, start time.Time, dur time.Duration, parent, pass int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s0 := start.Sub(r.origin)
	r.spans = append(r.spans, span{Name: name, Start: s0, End: s0 + dur, Parent: parent, Pass: pass})
	return len(r.spans) - 1
}

// count is how many spans have been recorded: the id the next one gets.
func (r *spanRecorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since returns a copy of the spans recorded from index first on, with
// parents renumbered to the copy (a parent recorded earlier becomes a
// root).
func (r *spanRecorder) since(first int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var spans []span
	for _, s := range r.spans[min(first, len(r.spans)):] {
		s.Parent = max(s.Parent-first, -1)
		spans = append(spans, s)
	}
	return spans
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover. Children may overlap
// each other (parallel shards) and may stick out of the parent; the
// covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			c := spans[k]
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// writeChromeTrace exports the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto). Each root span and its descendants
// share a track so nesting renders as a flame.
func (r *spanRecorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	root := make([]int, len(r.spans))
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent] // parents are always recorded first
		}
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: root[i] % 8,
			Args: map[string]int{"span": i, "parent": s.Parent, "pass": s.Pass},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
