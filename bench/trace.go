package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of one operation, recorded by the benchmark
// around a call into the program. The spans of one operation share its id;
// parent names the span that caused this one ("" for the operation's root).
// Start and end are nanoseconds since the tracer was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// traceEvery is how many operations run per one that is traced.
const traceEvery = 16

// tracer collects spans in memory; write puts them in a file once the run
// is over. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	ops   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sample returns a fresh operation id for one operation in traceEvery and
// zero for the rest.
func (t *tracer) sample() uint64 {
	if t == nil {
		return 0
	}
	if n := t.ops.Add(1); n%traceEvery == 0 {
		return n
	}
	return 0
}

// add records spans of operation id; it does nothing for id zero.
func (t *tracer) add(id uint64, spans ...span) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		s.ID = id
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) span(parent, name string, start, end time.Time) span {
	return span{Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
}

// served records a served operation: the root runs from when the operation
// was due to when it completed, its child covers the kvclient call, and the
// root's self time is what the operation waited in the load generator.
func (t *tracer) served(id uint64, kind uint8, due, t0, t1 time.Time) {
	if id == 0 {
		return
	}
	root, call := "op.get", "kvclient.Get"
	if kind == opPut {
		root, call = "op.put", "kvclient.Put"
	}
	t.add(id, t.span("", root, due, t1), t.span(root, call, t0, t1))
}

// selfTimes returns, by span name, the self time of every span recorded: its
// duration less the durations of the spans it caused.
func (t *tracer) selfTimes() map[string][]float64 {
	type key struct {
		id   uint64
		name string
	}
	children := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[key{s.ID, s.Name}]))
	}
	return out
}

// write puts the spans in out/trace-<workload>.json beside the benchmark's
// sources and returns the path.
func (t *tracer) write(workload string) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	slices.SortFunc(t.spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
