package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans of one request or batch share Req; Parent is the ID of
// the enclosing span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (an
// untraced run) records nothing and costs a nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write saves the spans as JSON; a nil tracer writes nothing.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
