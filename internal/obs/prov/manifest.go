package prov

import (
	"sort"
	"strconv"
)

// The manifest is the provenance section of a run bundle: the sorted
// per-evaluation records, the sorted per-fingerprint run-cache call lines,
// and a summary whose counters come from the producing process. Every
// entry is a fixed-field struct and the sort keys are total, so its JSON
// is byte-stable for a given design grid — P=1 and P=8 runs of the same
// figures produce identical bytes. Reconciliation (Validate) checks the
// manifest against itself and against the embedded counters, so a
// manifest that "doesn't sum" is detectable with no live process.

// RecordLine is one aggregated evaluation record.
type RecordLine struct {
	Figure        string   `json:"figure"`
	Label         string   `json:"label"`
	Route         string   `json:"route"`
	Counter       string   `json:"counter,omitempty"`
	Scheduler     string   `json:"scheduler"`
	Fingerprint   string   `json:"fingerprint"`
	Why           string   `json:"why"`
	Artifact      string   `json:"artifact,omitempty"`
	ArtifactSHA   string   `json:"artifact_sha256,omitempty"`
	ArtifactBytes int64    `json:"artifact_bytes,omitempty"`
	Stages        []string `json:"stages"`
	Count         uint64   `json:"count"`
}

// CallLine aggregates the run-cache lookups of one design-point
// fingerprint. Route is always "cache": which individual caller won the
// singleflight is scheduling-dependent, but the number of lookups per
// fingerprint — and, cold, the hit split (all but the winner) — is not.
type CallLine struct {
	Route       string `json:"route"`
	Label       string `json:"label"`
	Fingerprint string `json:"fingerprint"`
	Calls       uint64 `json:"calls"`
	Hits        uint64 `json:"hits"`
}

// RouteTotals counts evaluations per route across the whole manifest.
type RouteTotals struct {
	Footer uint64 `json:"footer"`
	Replay uint64 `json:"replay"`
	Exec   uint64 `json:"exec"`
}

// Counters carries the producing process's deterministic engine
// counters, the external half of the reconciliation invariant.
type Counters struct {
	Recordings      uint64 `json:"recordings"`
	FooterPoints    uint64 `json:"footer_points"`
	ReplayedPoints  uint64 `json:"replayed_points"`
	ExecPoints      uint64 `json:"exec_points"`
	RunCacheLookups uint64 `json:"runcache_lookups"`
}

// SummaryLine totals the manifest and carries the producing process's
// counters.
type SummaryLine struct {
	Evaluations uint64      `json:"evaluations"`
	SimsAvoided uint64      `json:"sims_avoided"`
	Calls       uint64      `json:"calls"`
	Routes      RouteTotals `json:"routes"`
	Counters    Counters    `json:"counters"`
}

// Manifest is the provenance of one run: what Ledger.Manifest renders and
// a run bundle's provenance section holds.
type Manifest struct {
	Records []RecordLine `json:"records"`
	Calls   []CallLine   `json:"calls"`
	Summary SummaryLine  `json:"summary"`
}

// avoided reports how many kernel simulations a record's evaluations
// skipped: footer and replay routes cost zero kernel arithmetic.
func (r RecordLine) avoided() uint64 {
	if r.Route == string(RouteFooter) || r.Route == string(RouteReplay) {
		return r.Count
	}
	return 0
}

// snapshotRecords renders the ledger's aggregated records sorted by
// (figure, label, fingerprint, route).
func (l *Ledger) snapshotRecords() []RecordLine {
	l.mu.Lock()
	out := make([]RecordLine, 0, len(l.recs))
	for _, e := range l.recs {
		out = append(out, RecordLine{
			Figure:        e.rec.Figure,
			Label:         e.rec.Label,
			Route:         string(e.rec.Route),
			Counter:       e.rec.Counter,
			Scheduler:     e.rec.Scheduler,
			Fingerprint:   e.rec.Fingerprint,
			Why:           e.rec.Justification,
			Artifact:      e.rec.Artifact,
			ArtifactSHA:   e.rec.ArtifactSHA256,
			ArtifactBytes: e.rec.ArtifactBytes,
			Stages:        e.rec.Stages,
			Count:         e.count,
		})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Fingerprint != b.Fingerprint {
			return a.Fingerprint < b.Fingerprint
		}
		return a.Route < b.Route
	})
	return out
}

// snapshotCalls renders the run-cache call lines sorted by
// (label, fingerprint).
func (l *Ledger) snapshotCalls() []CallLine {
	l.mu.Lock()
	out := make([]CallLine, 0, len(l.calls))
	for fp, e := range l.calls {
		out = append(out, CallLine{
			Route:       string(RouteCache),
			Label:       e.label,
			Fingerprint: fp,
			Calls:       e.calls,
			Hits:        e.hits,
		})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Manifest renders the ledger's records and call lines, sorted, with a
// summary that totals them and embeds the producing process's counters c.
// A nil ledger renders an empty manifest.
func (l *Ledger) Manifest(c Counters) Manifest {
	m := Manifest{Records: []RecordLine{}, Calls: []CallLine{}, Summary: SummaryLine{Counters: c}}
	if l == nil {
		return m
	}
	m.Records, m.Calls = l.snapshotRecords(), l.snapshotCalls()
	for _, r := range m.Records {
		m.Summary.Evaluations += r.Count
		m.Summary.SimsAvoided += r.avoided()
		switch r.Route {
		case string(RouteFooter):
			m.Summary.Routes.Footer += r.Count
		case string(RouteReplay):
			m.Summary.Routes.Replay += r.Count
		case string(RouteExec):
			m.Summary.Routes.Exec += r.Count
		}
	}
	for _, cl := range m.Calls {
		m.Summary.Calls += cl.Calls
	}
	return m
}

// counterRoutes bounds the counter vocabulary and pins the route each
// counter may ride.
var counterRoutes = map[string]string{
	CounterRecording: string(RouteExec),
	CounterFooter:    string(RouteFooter),
	CounterReplayed:  string(RouteReplay),
	CounterExec:      string(RouteExec),
}

// Validate reconciles the manifest against itself and against the
// embedded engine counters, returning one message per problem. An empty
// slice means every route sum matches: each figure cell's provenance is
// consistent with what the trace store and run cache actually counted.
func (m *Manifest) Validate() []string {
	var problems []string
	bad := func(msg string) { problems = append(problems, msg) }
	var (
		routes  RouteTotals
		evals   uint64
		avoided uint64
		byCtr   = map[string]uint64{}
		calls   uint64
	)
	for i, r := range m.Records {
		at := "record " + strconv.Itoa(i) + " (" + r.Figure + "/" + r.Label + ")"
		if r.Figure == "" || r.Label == "" || r.Fingerprint == "" || r.Why == "" || r.Scheduler == "" {
			bad(at + ": missing required field")
		}
		if r.Count == 0 {
			bad(at + ": zero count")
		}
		if len(r.Stages) == 0 {
			bad(at + ": empty stage path")
		}
		if (r.Artifact == "") != (r.ArtifactSHA == "") {
			bad(at + ": artifact name and hash must come together")
		}
		switch r.Route {
		case string(RouteFooter), string(RouteReplay), string(RouteExec):
		default:
			bad(at + ": invalid route " + strconv.Quote(r.Route))
			continue
		}
		if r.Counter != CounterNone {
			want, ok := counterRoutes[r.Counter]
			if !ok {
				bad(at + ": invalid counter " + strconv.Quote(r.Counter))
			} else if want != r.Route {
				bad(at + ": counter " + strconv.Quote(r.Counter) + " cannot ride route " + strconv.Quote(r.Route))
			}
		}
		switch r.Route {
		case string(RouteFooter):
			routes.Footer += r.Count
		case string(RouteReplay):
			routes.Replay += r.Count
		case string(RouteExec):
			routes.Exec += r.Count
		}
		evals += r.Count
		avoided += r.avoided()
		byCtr[r.Counter] += r.Count
	}
	for i, c := range m.Calls {
		at := "call " + strconv.Itoa(i) + " (" + c.Label + ")"
		if c.Route != string(RouteCache) {
			bad(at + ": route must be \"cache\"")
		}
		if c.Fingerprint == "" || c.Calls == 0 {
			bad(at + ": missing fingerprint or zero calls")
		}
		if c.Hits > c.Calls {
			bad(at + ": " + strconv.FormatUint(c.Hits, 10) + " hits exceed " + strconv.FormatUint(c.Calls, 10) + " calls")
		}
		calls += c.Calls
	}
	sum := m.Summary
	eq := func(name string, got, want uint64) {
		if got != want {
			bad(name + ": manifest sums to " + strconv.FormatUint(got, 10) +
				", summary says " + strconv.FormatUint(want, 10))
		}
	}
	eq("evaluations", evals, sum.Evaluations)
	eq("sims_avoided", avoided, sum.SimsAvoided)
	eq("calls", calls, sum.Calls)
	eq("routes.footer", routes.Footer, sum.Routes.Footer)
	eq("routes.replay", routes.Replay, sum.Routes.Replay)
	eq("routes.exec", routes.Exec, sum.Routes.Exec)
	// The reconciliation invariant proper: per-counter record sums must
	// equal what the trace store and run cache counted in the producing
	// process. A mismatch means an evaluation took a route nobody
	// recorded — exactly the silent routing regression this exists to
	// catch.
	eq("counter/recording vs trace-store Recordings", byCtr[CounterRecording], sum.Counters.Recordings)
	eq("counter/footer vs trace-store HeaderHits", byCtr[CounterFooter], sum.Counters.FooterPoints)
	eq("counter/replayed vs trace-store ReplayPoints+ReplayHits", byCtr[CounterReplayed], sum.Counters.ReplayedPoints)
	eq("counter/exec vs trace-store ExecPoints", byCtr[CounterExec], sum.Counters.ExecPoints)
	eq("calls vs run-cache lookups", calls, sum.Counters.RunCacheLookups)
	return problems
}

// FigureRoutes is the per-figure route aggregation behind lvareport's
// provenance table.
type FigureRoutes struct {
	Figure      string
	Footer      uint64
	Replay      uint64
	Exec        uint64
	Evaluations uint64
	SimsAvoided uint64
}

// PerFigure aggregates record route counts per figure, sorted by figure.
func (m *Manifest) PerFigure() []FigureRoutes {
	byFig := map[string]*FigureRoutes{}
	var order []string
	for _, r := range m.Records {
		f := byFig[r.Figure]
		if f == nil {
			f = &FigureRoutes{Figure: r.Figure}
			byFig[r.Figure] = f
			order = append(order, r.Figure)
		}
		switch r.Route {
		case string(RouteFooter):
			f.Footer += r.Count
		case string(RouteReplay):
			f.Replay += r.Count
		case string(RouteExec):
			f.Exec += r.Count
		}
		f.Evaluations += r.Count
		f.SimsAvoided += r.avoided()
	}
	sort.Strings(order)
	out := make([]FigureRoutes, len(order))
	for i, name := range order {
		out[i] = *byFig[name]
	}
	return out
}
