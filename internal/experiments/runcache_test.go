package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lva/internal/fullsys"
	"lva/internal/workloads"
)

// TestRunCacheSingleflight checks that repeated Run* calls with the same
// fingerprint simulate once and hit thereafter.
func TestRunCacheSingleflight(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()

	w := workloads.NewSwaptions()
	cfg := BaselineFor(w)
	first := RunLVA(w, cfg, DefaultSeed)
	s := RunCacheCounters()
	if s.Simulated != 1 || s.Hits != 0 {
		t.Fatalf("after first run: got %+v, want 1 simulated, 0 hits", s)
	}
	second := RunLVA(w, cfg, DefaultSeed)
	s = RunCacheCounters()
	if s.Simulated != 1 || s.Hits != 1 {
		t.Fatalf("after second run: got %+v, want 1 simulated, 1 hit", s)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit returned a different result:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	// A different configuration is a different fingerprint.
	cfg.GHBSize = 2
	RunLVA(w, cfg, DefaultSeed)
	if s = RunCacheCounters(); s.Simulated != 2 {
		t.Fatalf("distinct config should simulate again: %+v", s)
	}
}

// TestRunCacheKeysDistinguishAttachModes guards the design-point identity:
// the same workload/config/seed must not collide across attach modes,
// seeds, prefetch degrees or phase-2 configurations; equal phase-2
// configurations behind distinct pointers are one point; and one point's
// memo kinds are separate cells.
func TestRunCacheKeysDistinguishAttachModes(t *testing.T) {
	w := workloads.NewSwaptions()
	cfg := BaselineFor(w)
	approx := func(degree int, lane *fullsys.TrainingLaneConfig) fullsys.Config {
		acfg := BaselineFor(w)
		acfg.Degree = degree
		acfg.ValueDelay = 1
		c := fullsys.DefaultConfig()
		c.Approx = &acfg
		c.TrainingLane = lane
		return c
	}
	rob := fullsys.DefaultConfig()
	rob.ROB = 16
	mshr := fullsys.DefaultConfig()
	mshr.MSHRs = 4
	points := []struct {
		name string
		dp   designPoint
	}{
		{"precise", precisePoint(w, DefaultSeed)},
		{"lva", lvaPoint(w, cfg, DefaultSeed)},
		{"lvp", lvpPoint(w, cfg, DefaultSeed)},
		{"prefetch-4", prefetchPoint(w, 4, DefaultSeed)},
		{"prefetch-8", prefetchPoint(w, 8, DefaultSeed)},
		{"lva seed+1", lvaPoint(w, cfg, DefaultSeed+1)},
		{"fullsys precise", fullsysPoint(w, fullsys.DefaultConfig(), DefaultSeed)},
		{"fullsys ROB-16", fullsysPoint(w, rob, DefaultSeed)},
		{"fullsys MSHR-4", fullsysPoint(w, mshr, DefaultSeed)},
		{"fullsys degree 4", fullsysPoint(w, approx(4, nil), DefaultSeed)},
		{"fullsys degree 8", fullsysPoint(w, approx(8, nil), DefaultSeed)},
		{"fullsys degree 4 slow lane", fullsysPoint(w, approx(4, fullsys.DefaultTrainingLane()), DefaultSeed)},
	}
	seen := make(map[string]string)
	for _, p := range points {
		k := p.dp.key()
		if other, ok := seen[k]; ok {
			t.Errorf("%s and %s share key %q", p.name, other, k)
		}
		seen[k] = p.name
	}
	a := fullsysPoint(w, approx(4, fullsys.DefaultTrainingLane()), DefaultSeed)
	b := fullsysPoint(w, approx(4, fullsys.DefaultTrainingLane()), DefaultSeed)
	if a.key() != b.key() || a.hash() != b.hash() {
		t.Errorf("equal phase-2 configurations render distinct keys:\n%s\n%s", a.key(), b.key())
	}

	ResetRunCache()
	defer ResetRunCache()
	dp := precisePoint(w, DefaultSeed)
	for i, kind := range []memoKind{memoRun, memoStream, memoReplay, memoFullsys} {
		if v, hit := memoOnce(kind, dp, func() int { return i }); hit || v != i {
			t.Errorf("memo kind %d: got %d (hit %v), want a fresh cell holding %d", kind, v, hit, i)
		}
	}
}

// TestStreamSharesRunCell pins the contract between the trace store and
// the run cache: recording a stream and the plain Run* call of its design
// point (precise, and the Table II LVA baseline) share one run-cache cell.
// Recorded first, the stream's kernel execution serves the Run* call;
// run first, the store captures directly with one extra execution, which
// counts as a recapture and not as a run-cache simulation.
func TestStreamSharesRunCell(t *testing.T) {
	w := workloads.NewSwaptions()
	cases := []struct {
		kind string
		run  func() RunResult
	}{
		{"precise", func() RunResult { return RunPrecise(w, DefaultSeed) }},
		{"lvabase", func() RunResult { return RunLVA(w, BaselineFor(w), DefaultSeed) }},
	}
	for _, c := range cases {
		t.Run(c.kind+"/stream-first", func(t *testing.T) {
			SetTraceDir(t.TempDir())
			defer SetTraceDir("")
			ResetRunCache()
			defer ResetRunCache()
			if path, err := EnsureGridStream(c.kind, w, DefaultSeed); err != nil || path == "" {
				t.Fatalf("EnsureGridStream = %q, %v", path, err)
			}
			c.run()
			if s := RunCacheCounters(); s.Simulated != 1 || s.Hits != 1 {
				t.Errorf("run cache = %+v, want 1 simulated and 1 hit", s)
			}
			if ts := TraceCounters(); ts.Recordings != 1 || ts.Recaptures != 0 {
				t.Errorf("trace store = %+v, want 1 recording and no recapture", ts)
			}
		})
		t.Run(c.kind+"/run-first", func(t *testing.T) {
			SetTraceDir(t.TempDir())
			defer SetTraceDir("")
			ResetRunCache()
			defer ResetRunCache()
			c.run()
			before := RunCacheCounters().Simulated
			if path, err := EnsureGridStream(c.kind, w, DefaultSeed); err != nil || path == "" {
				t.Fatalf("EnsureGridStream = %q, %v", path, err)
			}
			if got := RunCacheCounters().Simulated; got != before {
				t.Errorf("Simulated = %d after recording, want %d (a recapture is not a run-cache simulation)", got, before)
			}
			if ts := TraceCounters(); ts.Recordings != 1 || ts.Recaptures != 1 {
				t.Errorf("trace store = %+v, want 1 recording, recaptured", ts)
			}
		})
	}
}

// TestRunCacheBypassIdentical checks that a figure computed through the
// cache is byte-identical to one computed with the cache disabled.
func TestRunCacheBypassIdentical(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()

	cached := Fig13().String()

	SetRunCacheEnabled(false)
	defer SetRunCacheEnabled(true)
	bypassed := Fig13().String()

	if cached != bypassed {
		t.Fatalf("cached and bypassed figures differ:\ncached:\n%s\nbypassed:\n%s", cached, bypassed)
	}
}

// TestRegistryDeterministicAcrossParallelismAndCache is the end-to-end
// guarantee of the run cache + scheduler: every registry figure renders
// byte-identically whether design points are simulated cold or served from
// the cache, and whether one or many simulations are in flight.
func TestRegistryDeterministicAcrossParallelismAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full registry three times")
	}
	if raceEnabled {
		t.Skip("three full-registry regenerations exceed the race detector's time budget; the lighter cache/scheduler tests run race-instrumented")
	}
	saved := Parallelism
	defer func() { Parallelism = saved; ResetRunCache() }()
	// The dedup bound measures the run cache itself, so run with the trace
	// store out of the way: replay serves grid points without Run* calls,
	// which would deflate both Hits and Simulated. (Replay-on determinism
	// is covered by TestFigureGoldenHashes and the replay_test.go suite.)
	SetReplayEnabled(false)
	defer SetReplayEnabled(true)

	render := func(figs []*Figure) map[string]string {
		out := make(map[string]string, len(figs))
		for _, f := range figs {
			out[f.ID] = f.String()
		}
		return out
	}

	Parallelism = 8
	ResetRunCache()
	figs, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	cold := render(figs)
	stats := RunCacheCounters()
	if got := stats.DedupFraction(); got < 0.30 {
		t.Errorf("run cache avoided only %.1f%% of kernel simulations, want >= 30%% (%+v)", 100*got, stats)
	}

	// Warm pass: everything must come from the cache and render identically.
	figs, err = RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range render(figs) {
		if s != cold[id] {
			t.Errorf("%s: warm (cache-hit) rendering differs from cold run:\ncold:\n%s\nwarm:\n%s", id, cold[id], s)
		}
	}
	warmStats := RunCacheCounters()
	if warmStats.Simulated != stats.Simulated {
		t.Errorf("warm pass simulated %d new kernels, want 0", warmStats.Simulated-stats.Simulated)
	}

	// Serial pass: Parallelism=1, cold cache.
	Parallelism = 1
	ResetRunCache()
	figs, err = RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range render(figs) {
		if s != cold[id] {
			t.Errorf("%s: Parallelism=1 rendering differs from Parallelism=8:\nP=8:\n%s\nP=1:\n%s", id, cold[id], s)
		}
	}
}

// TestRunAllProgress checks RunAll writes one progress line per figure,
// numbering completions 1..n whatever order the concurrent drivers finish
// in. Under -race it also checks the drivers' writes are serialized.
func TestRunAllProgress(t *testing.T) {
	var buf bytes.Buffer
	Progress = &buf
	defer func() { Progress = nil }()
	ids := []string{"fig12", "fig13", "table1"}
	if _, err := RunAll(ids...); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(ids) {
		t.Fatalf("%d progress lines, want %d:\n%s", len(lines), len(ids), buf.String())
	}
	seen := map[string]bool{}
	for i, line := range lines {
		var id string
		var done, total int
		if _, err := fmt.Sscanf(line, "lva: figure %s done (%d/%d)", &id, &done, &total); err != nil || done != i+1 || total != len(ids) {
			t.Errorf("line %d = %q, want lva: figure <id> done (%d/%d)", i, line, i+1, len(ids))
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("no progress line for %s:\n%s", id, buf.String())
		}
	}
}

// TestRunAllUnknownID checks RunAll validates ids before running anything.
func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll("fig99"); err == nil {
		t.Fatal("RunAll(fig99) should fail")
	}
}
