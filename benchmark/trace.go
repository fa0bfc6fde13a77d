package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into the stack. Parent is the
// index of the enclosing span in the tracer's list, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"` // ns since the tracer was created
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory and writes them once at exit. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int
	// paused drops spans: the traced run alternates traced and untraced
	// blocks on one engine to price the tracing itself.
	paused bool
}

func newTracer(workload string, capHint int) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, capHint), stack: make([]int, 0, 8)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil || t.paused {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Workload: t.workload})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanTotal is the self time and count of the spans of one name.
type spanTotal struct {
	self float64 // seconds, children excluded
	n    int
}

// selfTotals returns, per span name, duration minus the part covered by
// direct children (children of one span never overlap: the harness is a
// closed loop on one goroutine), and the span count.
func (t *tracer) selfTotals() map[string]spanTotal {
	out := map[string]spanTotal{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		tot := out[s.Name]
		tot.self += float64(s.End-s.Start-child[i]) / 1e9
		tot.n++
		out[s.Name] = tot
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
