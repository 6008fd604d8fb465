// Package prov is the run provenance ledger: a structured record of how
// every design-point evaluation was produced. PR 7's record-once replay
// means a figure cell can come from five places — a run-cache hit, a
// stream-footer read, a grid replay pass, the in-process replay memo, or
// a full kernel execution — and the ledger is the audit trail that says
// which, why, and from which on-disk artifact.
//
// The package follows the obs/attr seam contract exactly: a single
// atomic pointer is the on/off switch, every method is nil-receiver
// safe, and the disabled path is one pointer load with no allocation,
// no clock read and no string work (callers gate all of that on
// Active() != nil). The hot annotated-load path never reaches this
// package at all — emission happens once per design-point evaluation in
// the experiment engine, never per access.
//
// Records are deterministic by construction: route, justification,
// fingerprint and artifact identity are functions of the design grid,
// not of the schedule, so the rendered manifest (see manifest.go) is
// byte-stable across parallelism levels. Nothing scheduling-dependent —
// wall time, queue wait, decode volume — is recorded at all; the run
// timeline is where those live.
package prov

import (
	"sync"
	"sync/atomic"
)

// Route is how a design-point evaluation obtained its result.
type Route string

const (
	// RouteCache marks run-cache memo service. Which caller of a
	// fingerprint wins the singleflight is scheduling-dependent, so this
	// route appears only on the aggregated per-fingerprint call lines of
	// the manifest, never on per-evaluation records.
	RouteCache Route = "cache"
	// RouteFooter marks counters read straight from a recorded stream's
	// footer; no simulation at all.
	RouteFooter Route = "footer"
	// RouteReplay marks a point simulated from a recorded annotated
	// stream; no kernel arithmetic.
	RouteReplay Route = "replay"
	// RouteExec marks a full kernel execution.
	RouteExec Route = "exec"
)

// Counter names which trace-store counter an evaluation incremented, and
// is the join key of the manifest's reconciliation invariant: summed per
// name, record counts must equal the pinned trace-store counters.
const (
	// CounterNone marks evaluations outside the trace-store accounting
	// (output-error rows, phase-2 points, sweep points off the replay
	// path).
	CounterNone = ""
	// CounterRecording ↔ TraceStats.Recordings.
	CounterRecording = "recording"
	// CounterFooter ↔ TraceStats.HeaderHits.
	CounterFooter = "footer"
	// CounterReplayed ↔ TraceStats.ReplayPoints + ReplayHits (the split
	// between fresh replay and memo service is scheduling-dependent; the
	// sum is not).
	CounterReplayed = "replayed"
	// CounterExec ↔ TraceStats.ExecPoints.
	CounterExec = "exec"
)

// Record is the deterministic provenance of one design-point evaluation:
// the leaf of its span tree. Every field must be a function of the
// design grid alone.
type Record struct {
	// Figure is the owning experiment id ("fig4", "table1"), or a
	// pseudo-figure for work no single figure owns deterministically:
	// "tracestore" for stream recordings, "fullsys" for the memoized
	// phase-2 sweeps, "sweep" for RunSweep points.
	Figure string
	// Label names the cell within the figure ("lva-d4/canneal").
	Label string
	// Scheduler is the engine path that routed the evaluation: "ctr"
	// (counter scheduler), "run" (direct Run* task), "sweep", "fullsys",
	// or "store" (a stream recording).
	Scheduler string
	// Route is how the result was produced.
	Route Route
	// Counter names the trace-store counter this evaluation incremented
	// (see the Counter* constants); CounterNone when it touched none.
	Counter string
	// Fingerprint is a short hash of the canonical design-point key —
	// the same identity the run cache deduplicates on.
	Fingerprint string
	// Justification says why the route is exact for this point
	// ("FeedbackFree=true", "LVA attachment on feedback kernel", ...).
	Justification string
	// Artifact identifies the consumed (or produced) LVAG recording:
	// file basename, a prefix of the file's SHA-256, and its size.
	// Empty for routes that touch no recording.
	Artifact       string
	ArtifactSHA256 string
	ArtifactBytes  int64
	// Stages is the span path of the evaluation through the engine
	// (schedule → routing layer → serving leaf → append).
	Stages []string
}

// recEntry aggregates every evaluation that produced the same
// deterministic Record.
type recEntry struct {
	rec   Record
	count uint64
}

// callEntry aggregates run-cache lookups per design-point fingerprint.
type callEntry struct {
	label string
	calls uint64
	hits  uint64
}

// Ledger accumulates provenance for one enablement session. All methods
// are safe for concurrent use and nil-receiver safe.
type Ledger struct {
	mu    sync.Mutex
	recs  map[string]*recEntry
	calls map[string]*callEntry
}

// New returns a fresh, empty ledger.
func New() *Ledger {
	return &Ledger{
		recs:  make(map[string]*recEntry),
		calls: make(map[string]*callEntry),
	}
}

// active is the seam: nil means off, and every emission site is a single
// atomic load away from knowing that.
var active atomic.Pointer[Ledger]

// Enable installs a fresh ledger, replacing any previous session. Enable
// before the first run so every evaluation of the process is covered.
func Enable() { active.Store(New()) }

// Disable ends the session and returns the final ledger (nil when none
// was active). Subsequent evaluations emit nothing.
func Disable() *Ledger { return active.Swap(nil) }

// Enabled reports whether a ledger is active.
func Enabled() bool { return active.Load() != nil }

// Active returns the active ledger, or nil when provenance is off.
// Callers must gate all record construction on the nil check.
func Active() *Ledger { return active.Load() }

// Emit adds one design-point evaluation. Evaluations with identical
// deterministic records aggregate into one entry with a count.
func (l *Ledger) Emit(r Record) {
	if l == nil {
		return
	}
	k := r.Figure + "\x00" + r.Label + "\x00" + r.Fingerprint + "\x00" + string(r.Route)
	l.mu.Lock()
	e := l.recs[k]
	if e == nil {
		e = &recEntry{rec: r}
		l.recs[k] = e
	}
	e.count++
	l.mu.Unlock()
}

// Call accounts one run-cache lookup of the design point fingerprint.
// hit marks memo service; label names the point on first sight.
func (l *Ledger) Call(fingerprint, label string, hit bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e := l.calls[fingerprint]
	if e == nil {
		e = &callEntry{label: label}
		l.calls[fingerprint] = e
	}
	e.calls++
	if hit {
		e.hits++
	}
	l.mu.Unlock()
}
