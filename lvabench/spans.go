package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"

	"lva/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"bytes"`

	childNS     int64
	childAllocs uint64
	rt0         rt
}

// tracer keeps spans in memory, in start order, for one goroutine; spans
// nest strictly, so the open ones form a stack. Each span reads the runtime
// counters inside its own interval, so the cost of tracing a child lands in
// the child and not in its parent's self time.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	buf   []metrics.Sample
}

func newTracer() *tracer { return &tracer{t0: time.Now(), buf: newRuntimeSample()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	s := &t.spans[i]
	s.StartNS = time.Since(t.t0).Nanoseconds()
	s.rt0 = readSample(t.buf)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	r := readSample(t.buf)
	s := &t.spans[i]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Allocs = r.objects - s.rt0.objects
	s.Bytes = r.bytes - s.rt0.bytes
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		p := &t.spans[s.Parent]
		p.childNS += s.EndNS - s.StartNS
		p.childAllocs += s.Allocs
	}
}

// self is span i's duration minus the time its children cover.
func (t *tracer) self(i int) time.Duration {
	s := t.spans[i]
	return time.Duration(s.EndNS - s.StartNS - s.childNS)
}

// selfAllocs is span i's heap allocations minus its children's.
func (t *tracer) selfAllocs(i int) uint64 {
	s := t.spans[i]
	return s.Allocs - s.childAllocs
}

func (t *tracer) dur(i int) time.Duration {
	s := t.spans[i]
	return time.Duration(s.EndNS - s.StartNS)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedSource wraps a chunk source so that every Next is a "decode" span:
// the time a consumer spends inside its source is then its decode child.
type tracedSource struct {
	t        *tracer
	src      trace.ChunkSource
	accesses uint64
}

func (s *tracedSource) Next() ([]trace.Access, []uint64, error) {
	i := s.t.begin("decode")
	accs, insts, err := s.src.Next()
	s.t.end(i)
	if err == nil {
		s.accesses += uint64(len(accs))
	}
	return accs, insts, err
}
