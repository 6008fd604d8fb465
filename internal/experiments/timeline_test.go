package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// TestTimelineCapture drives one figure under an observed run and checks
// the bundle's timeline: named process groups, figure spans, worker spans
// with queue-wait args, and simulation spans marked by cache outcome. The
// bundle must also survive a read-back byte for byte.
func TestTimelineCapture(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	defer Observe()()
	if _, err := RunAll("fig13"); err != nil {
		t.Fatal(err)
	}
	o, b := observation(t)
	if o.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", o.DisplayTimeUnit)
	}
	again, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(again, '\n')) != string(b) {
		t.Error("the bundle changed across a read-back: some field does not round-trip")
	}

	var metas, figSpans, workerSpans, simSpans int
	for _, e := range o.TraceEvents {
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
	for _, e := range o.TraceEvents {
		if e.Ph == "X" && e.Dur < 1 {
			t.Errorf("span %q has zero width (Perfetto drops it)", e.Name)
		}
	}
}

// canonicalize reduces a capture to its scheduling-independent shape: the
// sorted multiset of (pid, phase, name), dropping metadata events and the
// volatile fields (timestamps, durations, tids, queue waits).
func canonicalize(evs []TraceEvent) []string {
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
	}()

	capture := func(par int) []string {
		Parallelism = par
		ResetRunCache()
		defer Observe()()
		if _, err := RunAll("fig12", "fig13"); err != nil {
			t.Fatal(err)
		}
		o, _ := observation(t)
		return canonicalize(o.TraceEvents)
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
