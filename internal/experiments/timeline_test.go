package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// decodeTrace parses a Chrome trace-event document as Perfetto would.
func decodeTrace(t *testing.T, b []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("timeline is not valid trace-event JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// TestTimelineCapture drives one figure under an active capture and checks
// the document shape: named process groups, figure spans, worker spans
// with queue-wait args, and simulation spans marked by cache outcome.
func TestTimelineCapture(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	if _, err := TimelineJSON(); err == nil {
		t.Fatal("TimelineJSON must error with no capture running")
	}
	StartTimeline()
	defer StopTimeline()
	if !TimelineActive() {
		t.Fatal("TimelineActive false after StartTimeline")
	}
	if _, err := RunAll("fig13"); err != nil {
		t.Fatal(err)
	}
	b, err := TimelineJSON()
	if err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, b)

	var metas, figSpans, workerSpans, simSpans int
	for _, e := range evs {
		switch {
		case e.Ph == "M":
			metas++
		case e.Ph == "X" && e.PID == tlPidFigures:
			figSpans++
			if e.Name != "fig13" {
				t.Errorf("unexpected figure span %q", e.Name)
			}
		case e.Ph == "X" && e.PID == tlPidWorkers:
			workerSpans++
			if _, ok := e.Args["queue_wait_us"]; !ok {
				t.Errorf("worker span %q missing queue_wait_us arg", e.Name)
			}
		case e.Ph == "X" && e.PID == tlPidSims:
			simSpans++
			if e.Args["cache"] != "miss" {
				t.Errorf("sim span %q not marked as a cache miss", e.Name)
			}
		}
	}
	if metas != 4 {
		t.Errorf("process_name metadata events = %d, want 4", metas)
	}
	if figSpans != 1 {
		t.Errorf("figure spans = %d, want 1", figSpans)
	}
	// fig13 schedules one precise + five mantissa-loss points.
	if workerSpans != 6 {
		t.Errorf("worker spans = %d, want 6", workerSpans)
	}
	if simSpans != 6 {
		t.Errorf("executed-simulation spans = %d, want 6", simSpans)
	}
	for _, e := range evs {
		if e.Ph == "X" && e.Dur < 1 {
			t.Errorf("span %q has zero width (Perfetto drops it)", e.Name)
		}
	}

	StopTimeline()
	if TimelineActive() {
		t.Fatal("TimelineActive true after StopTimeline")
	}
}

// canonicalize reduces a capture to its scheduling-independent shape: the
// sorted multiset of (pid, phase, name), dropping metadata events and the
// volatile fields (timestamps, durations, tids, queue waits).
func canonicalize(evs []traceEvent) []string {
	var out []string
	for _, e := range evs {
		if e.Ph == "M" {
			continue
		}
		out = append(out, fmt.Sprintf("%d|%s|%s", e.PID, e.Ph, e.Name))
	}
	sort.Strings(out)
	return out
}

// TestTimelineDeterministicAcrossParallelism checks the capture's canonical
// shape is identical at Parallelism 1 and 8: labels are derived from design
// points (not callers) and the singleflight cache fixes which points
// execute, so only timing may differ between schedules.
func TestTimelineDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates two figures twice")
	}
	saved := Parallelism
	defer func() {
		Parallelism = saved
		ResetRunCache()
		StopTimeline()
	}()

	capture := func(par int) []string {
		Parallelism = par
		ResetRunCache()
		StartTimeline()
		if _, err := RunAll("fig12", "fig13"); err != nil {
			t.Fatal(err)
		}
		b, err := TimelineJSON()
		if err != nil {
			t.Fatal(err)
		}
		StopTimeline()
		return canonicalize(decodeTrace(t, b))
	}

	p8 := capture(8)
	p1 := capture(1)
	if len(p8) != len(p1) {
		t.Fatalf("event counts differ: P=8 has %d, P=1 has %d", len(p8), len(p1))
	}
	for i := range p8 {
		if p8[i] != p1[i] {
			t.Fatalf("canonical event %d differs: P=8 %q, P=1 %q", i, p8[i], p1[i])
		}
	}
}
