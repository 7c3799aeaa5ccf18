package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a module of the engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`  // module: core, sqldb, fmu, solver, estimate, server, dataset
	Name   string `json:"name"`   // the public function called
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. A nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// call wraps fn in a span.
func (t *tracer) call(layer, name string, fn func() error) error {
	id := t.begin(layer, name)
	err := fn()
	t.end(id)
	return err
}

// selfTime sums, per layer, each span's duration minus the time its child
// spans cover, over the spans under a "bench" root: the operations of the
// measured loop, not set-up or probes. Spans of one tracer nest strictly, so
// children never overlap.
func selfTime(tracers []*tracer) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		root := make([]int, len(t.spans))
		for i, s := range t.spans {
			root[i] = i
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
				root[i] = root[s.Parent] // parents precede their children
			}
		}
		for i, s := range t.spans {
			if t.spans[root[i]].Layer == "bench" {
				out[s.Layer] += time.Duration(s.End - s.Start - child[i])
			}
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON object per line, with
// the goroutine index added as "g".
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				G int `json:"g"`
				span
			}{g, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
