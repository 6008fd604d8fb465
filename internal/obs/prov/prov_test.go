package prov

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sample builds a ledger carrying one of each entry shape, with counters
// that reconcile exactly.
func sample() (*Ledger, Counters) {
	l := New()
	stages := []string{"schedule", "tracestore", "footer", "figure-append"}
	l.Emit(Record{
		Figure: "fig4", Label: "lva/canneal", Scheduler: "ctr",
		Route: RouteFooter, Counter: CounterFooter,
		Fingerprint: "aaaa", Justification: "baseline",
		Artifact: "aaaa.lvag", ArtifactSHA256: "ffff", ArtifactBytes: 10,
		Stages: stages,
	})
	l.Emit(Record{
		Figure: "fig4", Label: "lvp/canneal", Scheduler: "ctr",
		Route: RouteReplay, Counter: CounterReplayed,
		Fingerprint: "bbbb", Justification: "lvp",
		Stages: stages,
	})
	l.Emit(Record{
		Figure: "tracestore", Label: "precise/canneal", Scheduler: "store",
		Route: RouteExec, Counter: CounterRecording,
		Fingerprint: "cccc", Justification: "cold",
		Stages: stages,
	})
	l.Call("cccc", "precise/canneal", false)
	l.Call("cccc", "precise/canneal", true)
	return l, Counters{
		Recordings:      1,
		FooterPoints:    1,
		ReplayedPoints:  1,
		ExecPoints:      0,
		RunCacheLookups: 2,
	}
}

// TestManifestRoundTrip renders a ledger's manifest twice, requires the
// JSON bytes to match, and reads them back into an equal manifest that
// reconciles.
func TestManifestRoundTrip(t *testing.T) {
	l, c := sample()
	a, err := json.Marshal(l.Manifest(c))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(l.Manifest(c))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two renders of the same ledger differ — manifest is not byte-stable")
	}
	var m Manifest
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("manifest JSON does not read back: %v", err)
	}
	if !reflect.DeepEqual(m, l.Manifest(c)) {
		t.Errorf("manifest changed across a JSON round trip:\n%+v\n%+v", m, l.Manifest(c))
	}
	if len(m.Records) != 3 || len(m.Calls) != 1 {
		t.Fatalf("parsed %d records, %d calls; want 3, 1", len(m.Records), len(m.Calls))
	}
	if problems := m.Validate(); len(problems) != 0 {
		t.Errorf("Validate on a consistent manifest: %v", problems)
	}
	if m.Summary.Evaluations != 3 || m.Summary.SimsAvoided != 2 || m.Summary.Calls != 2 {
		t.Errorf("summary = %+v", m.Summary)
	}
	pf := m.PerFigure()
	if len(pf) != 2 || pf[0].Figure != "fig4" || pf[0].Footer != 1 || pf[0].Replay != 1 ||
		pf[1].Figure != "tracestore" || pf[1].Exec != 1 {
		t.Errorf("PerFigure = %+v", pf)
	}
}

func TestEmitAggregatesIdenticalRecords(t *testing.T) {
	l := New()
	r := Record{Figure: "f", Label: "l", Scheduler: "ctr", Route: RouteReplay,
		Counter: CounterReplayed, Fingerprint: "ab", Justification: "j",
		Stages: []string{"s"}}
	l.Emit(r)
	l.Emit(r)
	recs := l.snapshotRecords()
	if len(recs) != 1 || recs[0].Count != 2 {
		t.Fatalf("snapshot = %+v, want one record with count 2", recs)
	}
}

func TestValidateCatchesMismatches(t *testing.T) {
	// Counter drift: the engine says 5 footer points, records sum to 1.
	l, c := sample()
	c.FooterPoints = 5
	m := l.Manifest(c)
	if problems := m.Validate(); len(problems) == 0 ||
		!strings.Contains(strings.Join(problems, "\n"), "counter/footer") {
		t.Errorf("footer drift not reported: %v", problems)
	}

	// Call-vs-lookup drift.
	l, c = sample()
	c.RunCacheLookups = 7
	if m := l.Manifest(c); len(m.Validate()) == 0 {
		t.Error("run-cache lookup drift not reported")
	}

	// A record whose counter rides the wrong route.
	l, c = sample()
	l.Emit(Record{Figure: "f", Label: "l", Scheduler: "ctr", Route: RouteExec,
		Counter: CounterFooter, Fingerprint: "dd", Justification: "j",
		Stages: []string{"s"}})
	if m := l.Manifest(c); len(m.Validate()) == 0 {
		t.Error("counter on wrong route not reported")
	}

	// Tampered summary.
	l, c = sample()
	m = l.Manifest(c)
	m.Summary.Evaluations++
	if problems := m.Validate(); len(problems) == 0 {
		t.Error("tampered evaluation total not reported")
	}

	// A record removed after rendering.
	l, c = sample()
	m = l.Manifest(c)
	m.Records = m.Records[1:]
	if problems := m.Validate(); len(problems) == 0 {
		t.Error("missing record not reported")
	}
}

// TestNilLedgerSafe pins the seam contract: every method is a no-op on a
// nil receiver, so call sites only need the one Active() nil check.
func TestNilLedgerSafe(t *testing.T) {
	var l *Ledger
	l.Emit(Record{})
	l.Call("x", "y", true)
	m := l.Manifest(Counters{})
	if len(m.Records) != 0 || len(m.Calls) != 0 || m.Summary != (SummaryLine{}) {
		t.Errorf("nil ledger rendered a non-empty manifest: %+v", m)
	}
}

// TestDisabledPathAllocsFree pins the off-path cost of the seam itself:
// with no active ledger, the probe is one atomic load and zero
// allocations.
func TestDisabledPathAllocsFree(t *testing.T) {
	if Enabled() {
		t.Fatal("ledger unexpectedly active")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if l := Active(); l != nil {
			t.Fatal("active mid-test")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled Active() check allocates %.1f times per run, want 0", allocs)
	}
}

func TestEnableDisable(t *testing.T) {
	Enable()
	defer Disable()
	if !Enabled() || Active() == nil {
		t.Fatal("no active ledger after Enable")
	}
	l := Disable()
	if l == nil || Enabled() {
		t.Error("Disable must return the final ledger and clear the seam")
	}
}
