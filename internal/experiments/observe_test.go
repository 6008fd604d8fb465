package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// observation writes the observed run's bundle and reads it back. It
// returns the bundle and its bytes.
func observation(t *testing.T) (*Observation, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteObservation(&buf); err != nil {
		t.Fatalf("WriteObservation: %v", err)
	}
	o, err := ReadObservation(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadObservation: %v", err)
	}
	return o, buf.Bytes()
}

// observedRegistry is the full registry rendered once per test binary
// with every observer on (timeline, per-site attribution and provenance):
// the figure hashes and the bundle read back. TestFiguresIdenticalWithAttrOn
// and TestFigureGoldenHashesProvOn check different sections of the one
// render.
var observedRegistry struct {
	once   sync.Once
	hashes map[string]string
	obs    *Observation
	err    error
}

// observeRegistry returns the observed full-registry render, after
// checking every figure in it against the committed golden hashes:
// observability must not perturb simulation output by a single byte.
func observeRegistry(t *testing.T) *Observation {
	t.Helper()
	r := &observedRegistry
	r.once.Do(func() {
		ResetRunCache()
		defer ResetRunCache()
		defer Observe()()
		figs, err := RunAll()
		if err != nil {
			r.err = fmt.Errorf("RunAll: %w", err)
			return
		}
		r.hashes = make(map[string]string, len(figs))
		for _, f := range figs {
			r.hashes[f.ID] = figureHash(f)
		}
		var buf bytes.Buffer
		if err := WriteObservation(&buf); err != nil {
			r.err = fmt.Errorf("WriteObservation: %w", err)
			return
		}
		if r.obs, err = ReadObservation(&buf); err != nil {
			r.err = fmt.Errorf("ReadObservation: %w", err)
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden: reading %s: %v", goldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden: parsing %s: %v", goldenPath, err)
	}
	if len(r.hashes) != len(want) {
		t.Errorf("golden: %d figures rendered with observation on, %d hashes on file", len(r.hashes), len(want))
	}
	for id, h := range r.hashes {
		if w, ok := want[id]; !ok || h != w {
			t.Errorf("golden: figure %q with every observer on hashed %s, want %s — observability changed simulation output", id, h, w)
		}
	}
	return r.obs
}

// stableSections returns a bundle's top-level sections other than
// traceEvents, raw, keyed by name: the part that must be byte-stable.
func stableSections(t *testing.T, b []byte) map[string]string {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("bundle is not a JSON object: %v", err)
	}
	if _, ok := raw["traceEvents"]; !ok {
		t.Fatal("bundle has no traceEvents")
	}
	delete(raw, "traceEvents")
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		out[k] = string(v)
	}
	return out
}

// TestReadObservationRejectsMalformed feeds the bundle reader documents it
// must refuse: anything but one JSON object of the current version.
func TestReadObservationRejectsMalformed(t *testing.T) {
	good := `{"traceEvents":[],"displayTimeUnit":"ms","version":1,"code":"c","metrics":[],"attribution":[],` +
		`"provenance":{"records":[],"calls":[],"summary":{}}}`
	if _, err := ReadObservation(strings.NewReader(good)); err != nil {
		t.Fatalf("a well-formed bundle was refused: %v", err)
	}
	cases := map[string]string{
		"empty":          "",
		"not an object":  "nope",
		"truncated":      good[:len(good)/2],
		"bad version":    strings.Replace(good, `"version":1`, `"version":9`, 1),
		"no version":     strings.Replace(good, `"version":1,`, "", 1),
		"after document": good + `{"version":1}`,
		"wrong section":  strings.Replace(good, `"metrics":[]`, `"metrics":{}`, 1),
	}
	for name, doc := range cases {
		if _, err := ReadObservation(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ReadObservation accepted a malformed bundle", name)
		}
	}
}

// TestWriteObservationNeedsObserve checks the writer refuses to write a
// bundle no observed run filled.
func TestWriteObservationNeedsObserve(t *testing.T) {
	if err := WriteObservation(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteObservation must error with no observed run")
	}
	stop := Observe()
	stop()
	if err := WriteObservation(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteObservation must error once the observed run stopped")
	}
}
