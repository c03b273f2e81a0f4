package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. The benchmark records spans from its own
// files only: around each end-to-end call, and around each layer's public
// function in the stage-by-stage replays.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is the
// untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve makes room for n more spans, so that recording inside a measured
// loop does not allocate.
func (t *tracer) reserve(n int) {
	if t == nil || cap(t.spans)-len(t.spans) >= n {
		return
	}
	grown := make([]span, len(t.spans), 2*cap(t.spans)+n)
	copy(grown, t.spans)
	t.spans = grown
}

func (t *tracer) begin(name, op string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op})
	t.stack = append(t.stack, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// self returns, per span name, each span's self time in nanoseconds: its
// duration minus the part its child spans cover.
func (t *tracer) self() map[string][]float64 {
	own := make([]int64, len(t.spans))
	for i, s := range t.spans {
		own[i] += s.End - s.Start
		if s.Parent > 0 {
			own[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(own[i]))
	}
	return out
}

func (t *tracer) duration(id int) float64 {
	return float64(t.spans[id-1].End - t.spans[id-1].Start)
}

// children returns the summed duration of span id's direct children.
func (t *tracer) children(id int) float64 {
	sum := 0.0
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			sum += float64(s.End - s.Start)
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
