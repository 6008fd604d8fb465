package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"lva/internal/obs"
	"lva/internal/obs/attr"
	"lva/internal/obs/prov"
)

// An observed run leaves one artifact, the run bundle: a Chrome
// trace-event JSON object whose traceEvents are the run timeline, followed
// by the deterministic sections that explain the figures: the metrics
// registry, per-site attribution and the provenance manifest. Observe
// turns every observer on before a run, WriteObservation writes the bundle
// after it, and ReadObservation reads one back for lvareport.

// ObservationVersion is the run-bundle schema version written and
// accepted.
const ObservationVersion = 1

// Observation is one run bundle. TraceEvents and DisplayTimeUnit come
// first because some Perfetto versions stop reading a JSON trace at the
// first top-level key they do not know. The trace events carry wall-clock
// times; every section after them is byte-stable across processes and
// Parallelism levels for a given set of experiments.
type Observation struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Version         int          `json:"version"`
	// Code is GoldenCodeVersion of the code that ran.
	Code string `json:"code"`
	// Metrics is the registry's deterministic snapshot (volatile timing
	// histograms excluded).
	Metrics []obs.MetricSnapshot `json:"metrics"`
	// Attribution holds one scope per simulated approximate design point,
	// sorted by scope.
	Attribution []attr.ScopeStats `json:"attribution"`
	// Provenance says how every evaluation was served, with the engine
	// counters it reconciles against.
	Provenance prov.Manifest `json:"provenance"`
}

// Observe starts an observed run: a fresh run timeline, per-site
// attribution into an emptied registry, and a fresh provenance ledger.
// Call it before the first run so the bundle covers every evaluation of
// the process. The returned stop turns every observer off again.
func Observe() (stop func()) {
	startTimeline()
	attr.Reset()
	attr.SetEnabled(true)
	prov.Enable()
	return func() {
		timeline.Store(nil)
		attr.SetEnabled(false)
		prov.Disable()
	}
}

// WriteObservation writes the bundle of the run Observe started, as one
// indented JSON document. It may be called while the run is still
// observed; the bundle covers what the observers saw so far.
func WriteObservation(w io.Writer) error {
	tl, l := timeline.Load(), prov.Active()
	if tl == nil || l == nil {
		return errors.New("experiments: no observed run (call Observe first)")
	}
	b, err := json.MarshalIndent(Observation{
		TraceEvents:     tl.snapshot(),
		DisplayTimeUnit: "ms",
		Version:         ObservationVersion,
		Code:            GoldenCodeVersion,
		Metrics:         obs.Default().Snapshot(false).Metrics,
		Attribution:     attr.TakeSnapshot().Scopes,
		Provenance:      l.Manifest(provCounters()),
	}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadObservation reads a bundle that WriteObservation wrote. Anything
// but one JSON document of this schema version is an error; whether its
// provenance reconciles is for Manifest.Validate to say.
func ReadObservation(r io.Reader) (*Observation, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var o Observation
	if err := json.Unmarshal(b, &o); err != nil {
		return nil, fmt.Errorf("run bundle: %w", err)
	}
	if o.Version != ObservationVersion {
		return nil, fmt.Errorf("run bundle: version %d, want %d", o.Version, ObservationVersion)
	}
	return &o, nil
}
