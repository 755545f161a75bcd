package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rumble"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share OpID; Parent is the index of the enclosing span in the trace (-1
// for a root). Times are nanoseconds since the tracer was created.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	OpID     int    `json:"op_id"`
	Workload string `json:"workload"`
	// Profile is the engine's own per-operator snapshot of a profiled
	// probe, attached to the op span it was taken after.
	Profile *rumble.ProfileSnapshot `json:"profile,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the plain (end-to-end) pass runs the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, opID, time.Now(), time.Time{})
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller already knows (the server's
// envelope reports phase durations, not timestamps).
func (t *tracer) add(name string, parent, opID int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), Parent: parent, OpID: opID, Workload: t.workload}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) attachProfile(id int, p rumble.ProfileSnapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Profile = &p
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of its interval that its child
// spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]float64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// traceFile is what -trace-out holds at exit.
type traceFile struct {
	Host     hostInfo                      `json:"host"`
	SelfMS   map[string]map[string]float64 `json:"self_ms"`        // workload -> span name -> ms
	Overhead map[string]float64            `json:"overhead_ratio"` // workload -> traced p50 / plain p50
	Spans    []span                        `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
