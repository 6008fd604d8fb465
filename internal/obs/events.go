package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Event kinds emitted by the experiment engine.
const (
	// EventFigureDone fires when one figure driver finishes; Done/Total
	// track progress across the requested figure set.
	EventFigureDone = "figure.done"
	// EventSweepPoint fires per completed sweep design point; Name is the
	// sweep label, Done/Total the point progress within that sweep.
	EventSweepPoint = "sweep.point"
)

// Event is one structured progress notification. Events are a live
// side-channel for humans and tests — they carry no simulation results and
// never feed back into figures.
type Event struct {
	Kind  string // one of the Event* constants
	Name  string // figure ID or sweep label
	Done  int    // completed units of Kind's granularity
	Total int    // total units, 0 when unknown
}

// subscribers holds the registered event callbacks. subCount mirrors
// len(subs) atomically so Emit can skip the lock when nobody listens —
// the common case for every non-interactive run.
var (
	subMu    sync.Mutex
	subs     map[int]*subscription
	subNext  int
	subCount atomic.Int32
)

// subscription is one registered callback. Emit holds mu for reading
// while fn runs and cancel takes it for writing, so once cancel returns
// no delivery to fn is running and none will start.
type subscription struct {
	mu        sync.RWMutex
	fn        func(Event)
	cancelled bool
}

// OnEvent registers fn to receive every emitted event and returns a cancel
// function. Callbacks run synchronously on the emitting goroutine and may
// be invoked concurrently; they must be fast and race-safe. Once cancel
// returns, fn is not running and is never called again; cancel waits for
// deliveries in flight, so fn must not call it.
func OnEvent(fn func(Event)) (cancel func()) {
	s := &subscription{fn: fn}
	subMu.Lock()
	if subs == nil {
		subs = make(map[int]*subscription)
	}
	id := subNext
	subNext++
	subs[id] = s
	subCount.Store(int32(len(subs)))
	subMu.Unlock()
	return func() {
		subMu.Lock()
		delete(subs, id)
		subCount.Store(int32(len(subs)))
		subMu.Unlock()
		s.mu.Lock()
		s.cancelled = true
		s.mu.Unlock()
	}
}

// Emit delivers e to every subscriber. With no subscribers it is a single
// atomic load.
func Emit(e Event) {
	if subCount.Load() == 0 {
		return
	}
	subMu.Lock()
	ss := make([]*subscription, 0, len(subs))
	for _, s := range subs {
		ss = append(ss, s)
	}
	subMu.Unlock()
	for _, s := range ss {
		s.mu.RLock()
		if !s.cancelled {
			s.fn(e)
		}
		s.mu.RUnlock()
	}
}

// NewProgressPrinter returns an event callback that writes human-readable
// progress lines to w (pass it to OnEvent). Figure completions always
// print; sweep points are throttled to every 8th point plus the final one
// so long sweeps stay legible on a terminal.
func NewProgressPrinter(w io.Writer) func(Event) {
	var mu sync.Mutex
	return func(e Event) {
		switch e.Kind {
		case EventFigureDone:
			mu.Lock()
			fmt.Fprintf(w, "lva: figure %s done (%d/%d)\n", e.Name, e.Done, e.Total)
			mu.Unlock()
		case EventSweepPoint:
			if e.Done%8 != 0 && e.Done != e.Total {
				return
			}
			mu.Lock()
			fmt.Fprintf(w, "lva: sweep %s %d/%d points\n", e.Name, e.Done, e.Total)
			mu.Unlock()
		}
	}
}
