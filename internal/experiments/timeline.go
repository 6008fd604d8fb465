package experiments

import (
	"sync"
	"sync/atomic"
	"time"
)

// The run timeline makes the scheduler visible: during an observed run
// (Observe) the engine records Chrome trace events, the run bundle's
// TraceEvents (load the bundle at ui.perfetto.dev or chrome://tracing),
// with one track per gate slot showing which figure/row task each worker
// ran and how long it queued, one track per figure driver, and one lane of
// executed kernel simulations with run-cache hits marked as instants.
// Capture is off by default: the pointer below is nil and every emission
// site is a single atomic load.

// Trace-event process ids: Perfetto groups tracks by pid, so each view
// lands in its own named group.
const (
	tlPidWorkers = 1 // gate slots (tid = slot id)
	tlPidFigures = 2 // figure drivers (tid = position in the requested id set)
	tlPidSims    = 3 // executed simulations + run-cache hit instants
	tlPidProv    = 4 // provenance spans: serving stages, flow-linked to recordings
)

// TraceEvent is one Chrome trace-event object. Times are microseconds
// relative to capture start.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"` // flow events only
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" on finishes)
	Args map[string]any `json:"args,omitempty"`
}

// runTimeline accumulates trace events for one capture session.
type runTimeline struct {
	start time.Time

	mu       sync.Mutex
	events   []TraceEvent
	simTids  int // virtual tid allocator for the executed-simulation lane
	provTids int // virtual tid allocator for the provenance lane
}

// timeline is the active capture (nil = off). Emission sites load it once
// and skip all timing work when no capture is running.
var timeline atomic.Pointer[runTimeline]

// startTimeline begins a new capture session, replacing any previous one.
func startTimeline() {
	t := &runTimeline{start: time.Now(), events: make([]TraceEvent, 0, 4096)}
	t.events = append(t.events,
		metaEvent(tlPidWorkers, "process_name", "gate workers"),
		metaEvent(tlPidFigures, "process_name", "figure drivers"),
		metaEvent(tlPidSims, "process_name", "kernel simulations"),
		metaEvent(tlPidProv, "process_name", "provenance"),
	)
	timeline.Store(t)
}

func metaEvent(pid int, name, value string) TraceEvent {
	return TraceEvent{Name: name, Ph: "M", PID: pid, Args: map[string]any{"name": value}}
}

// now returns microseconds since capture start.
func (t *runTimeline) now() int64 { return time.Since(t.start).Microseconds() }

// span records a complete ("X") event from start to now.
func (t *runTimeline) span(pid, tid int, name, cat string, start time.Time, args map[string]any) {
	ts := start.Sub(t.start).Microseconds()
	dur := time.Since(start).Microseconds()
	if dur < 1 {
		dur = 1 // Perfetto drops zero-width spans
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur,
		PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// instant records an instant ("i") event at now.
func (t *runTimeline) instant(pid, tid int, name, cat string, args map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", TS: t.now(),
		PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// nextSimTid hands out lanes for concurrently executing simulations.
func (t *runTimeline) nextSimTid() int {
	t.mu.Lock()
	t.simTids++
	tid := t.simTids
	t.mu.Unlock()
	return tid
}

// nextProvTid hands out lanes on the provenance pid.
func (t *runTimeline) nextProvTid() int {
	t.mu.Lock()
	t.provTids++
	tid := t.provTids
	t.mu.Unlock()
	return tid
}

// flow records one end of a flow arrow bound to the span that starts at
// start on (pid, tid): ph "s" opens the arrow at a recording span, ph
// "f" with binding point "e" lands it on a consuming span. Both ends
// share name/cat ("stream"/"prov") and the id derived from the stream
// key, which is how the trace-event format pairs them.
func (t *runTimeline) flow(ph string, id uint64, pid, tid int, start time.Time) {
	ev := TraceEvent{
		Name: "stream", Cat: "prov", Ph: ph,
		TS:  start.Sub(t.start).Microseconds() + 1, // inside the ≥1µs span
		PID: pid, TID: tid, ID: id,
	}
	if ph == "f" {
		ev.BP = "e"
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// snapshot copies the events captured so far.
func (t *runTimeline) snapshot() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]TraceEvent, len(t.events))
	copy(evs, t.events)
	return evs
}
