package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its Op id; Parent is the index of the enclosing span (-1 for a root).
// Times are nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer holds the spans of a traced run in memory; they are written out
// once, when the run ends. A nil tracer records nothing, so the untraced
// run pays for none of it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// spanFile is the on-disk form of a traced run's spans.
type spanFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

// write stores the spans at <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, env environment) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Env: env, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
