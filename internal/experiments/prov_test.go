package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"lva/internal/core"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/obs/prov"
	"lva/internal/workloads"
)

// TestProvOffIsFree pins the cost of the disabled provenance seam: with no
// active ledger, a full emission sequence — begin, point, stage — is one
// atomic load plus nil checks, and allocates nothing. This is the contract
// that lets every engine path call these helpers unconditionally.
func TestProvOffIsFree(t *testing.T) {
	if prov.Enabled() {
		t.Fatal("provenance unexpectedly enabled")
	}
	dp := lvaPoint(workloads.NewCanneal(), core.DefaultConfig(), DefaultSeed)
	allocs := testing.AllocsPerRun(1000, func() {
		pc := provBegin()
		if pc.on() {
			t.Error("provCtx on with no ledger")
		}
		pc.point("fig4", "lva/canneal", "ctr", prov.RouteExec, prov.CounterNone,
			provWhyOutputRow, dp, nil, provStagesRunExec)
		pc.stage("exec fig4/lva/canneal", "", "", nil)
	})
	if allocs != 0 {
		t.Errorf("disabled provenance path allocates %.1f times per emission, want 0", allocs)
	}
}

// provManifest writes the observed run's bundle and returns its
// provenance section, read back, and that section's bytes.
func provManifest(t *testing.T) ([]byte, *prov.Manifest) {
	t.Helper()
	o, b := observation(t)
	return []byte(stableSections(t, b)["provenance"]), &o.Provenance
}

// TestProvManifestPinnedAndStable runs the three counter figures cold
// under observation and checks the two core provenance contracts: the
// summary reconciles exactly against the pinned trace-store counters (14
// recordings / 35 footer points / 34 replayed / 15 executed — the same
// numbers TestStreamRecordOnce pins), and a second cold run at a different
// parallelism level writes a byte-identical provenance section.
func TestProvManifestPinnedAndStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three figures twice")
	}
	if raceEnabled {
		t.Skip("two cold three-figure runs exceed the race budget")
	}
	saved := Parallelism
	defer func() { Parallelism = saved }()

	run := func(par int) []byte {
		SetTraceDir(t.TempDir())
		defer SetTraceDir("")
		ResetRunCache()
		defer ResetRunCache()
		Parallelism = par
		defer Observe()()
		if _, err := RunAll("table1", "fig4", "fig12"); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		b, m := provManifest(t)
		if problems := m.Validate(); len(problems) != 0 {
			t.Fatalf("P=%d manifest does not reconcile:\n%v", par, problems)
		}
		return b
	}

	a := run(1)
	var m prov.Manifest
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("provenance section does not read back: %v", err)
	}
	c := m.Summary.Counters
	if c.Recordings != 14 || c.FooterPoints != 35 || c.ReplayedPoints != 34 || c.ExecPoints != 15 {
		t.Errorf("cold counters = %+v, want 14 recordings / 35 footer / 34 replayed / 15 exec", c)
	}
	if m.Summary.Routes.Footer != 35 || m.Summary.Routes.Replay != 34 {
		t.Errorf("route totals = %+v, want 35 footer / 34 replay", m.Summary.Routes)
	}
	for _, fr := range m.PerFigure() {
		if fr.Evaluations == 0 {
			t.Errorf("figure %q has zero evaluations", fr.Figure)
		}
	}

	b := run(8)
	if !bytes.Equal(a, b) {
		t.Error("provenance bytes differ between P=1 and P=8 cold runs — a scheduling-dependent field leaked into the manifest")
	}
}

// TestFigureGoldenHashesProvOn renders the full registry with every
// observer on (timeline, per-site attribution and provenance) and checks
// every figure against the committed golden hashes and that the
// provenance in the bundle written alongside reconciles.
func TestFigureGoldenHashesProvOn(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full registry")
	}
	if raceEnabled {
		t.Skip("a second full-registry render exceeds the race budget")
	}
	o := observeRegistry(t)
	if problems := o.Provenance.Validate(); len(problems) != 0 {
		t.Errorf("full-registry provenance does not reconcile:\n%v", problems)
	}
}

// TestTraceStoreCorruptFooterReRecords is the persistent-store resilience
// contract: a truncated LVAG file in LVA_TRACE_DIR (a crashed writer, a
// partial copy) must be silently re-recorded — correct results, a valid
// recording back on disk, and a provenance record saying why — never a
// panic or an error surfaced to the figure drivers.
func TestTraceStoreCorruptFooterReRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("two kernel recordings exceed the race budget")
	}
	t.Setenv("LVA_TRACE_DIR", t.TempDir())
	ResetRunCache()
	defer ResetRunCache()
	w, err := workloads.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}

	st := ensureStream(precisePoint(w, DefaultSeed))
	if st.path == "" {
		t.Fatal("initial recording failed")
	}
	want := st.res
	path := st.path

	// "Next process": in-memory cells reset, the LVA_TRACE_DIR store
	// survives — but its file was truncated to half.
	ResetRunCache()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	defer Observe()()
	st2 := ensureStream(precisePoint(w, DefaultSeed))
	if st2.res != want {
		t.Errorf("re-recorded result differs from original:\nwant %+v\ngot  %+v", want, st2.res)
	}
	if st2.path == "" {
		t.Fatal("re-recording did not restore the on-disk stream")
	}
	if _, _, err := readStreamHeader(st2.path, precisePoint(w, DefaultSeed).key()); err != nil {
		t.Errorf("re-recorded stream footer unreadable: %v", err)
	}
	if ts := TraceCounters(); ts.Recordings != 1 {
		t.Errorf("Recordings = %d, want 1 (the re-recording)", ts.Recordings)
	}

	_, m := provManifest(t)
	if problems := m.Validate(); len(problems) != 0 {
		t.Errorf("manifest does not reconcile:\n%v", problems)
	}
	found := false
	for _, r := range m.Records {
		if r.Figure == "tracestore" && r.Why == provWhyReRecord {
			found = true
			if r.Counter != prov.CounterRecording {
				t.Errorf("re-record provenance counter = %q, want %q", r.Counter, prov.CounterRecording)
			}
		}
	}
	if !found {
		t.Error("no provenance record justifying the re-recording (want why=re-recorded)")
	}
}

// TestTraceStoreCorruptChunkFallsBackToExec covers the nastier corruption:
// chunk data is garbage but the footer still parses, so the store trusts
// the file and the failure only surfaces mid-decode. A counter batch's
// replay group must fall back to kernel execution with the exact same
// result — a partial stream is never served — and the provenance record
// must say the replay failed.
func TestTraceStoreCorruptChunkFallsBackToExec(t *testing.T) {
	if raceEnabled {
		t.Skip("recording plus fallback execution exceed the race budget")
	}
	t.Setenv("LVA_TRACE_DIR", t.TempDir())
	ResetRunCache()
	defer ResetRunCache()
	w, err := workloads.ByName("blackscholes") // feedback-free: LVA replays
	if err != nil {
		t.Fatal(err)
	}

	st := ensureStream(precisePoint(w, DefaultSeed))
	if st.path == "" {
		t.Fatal("recording failed")
	}
	// "Next process": the recording survives in LVA_TRACE_DIR, the
	// counters and cells reset.
	ResetRunCache()
	// Overwrite the first chunk header (right after the 8-byte file
	// prelude) with an absurd access count. The footer at the tail is
	// untouched, so readStreamHeader still succeeds and the store trusts
	// the recording.
	f, err := os.OpenFile(st.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 8), 8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := readStreamHeader(st.path, precisePoint(w, DefaultSeed).key()); err != nil {
		t.Fatalf("test setup: footer should still read after chunk corruption: %v", err)
	}

	cfg := BaselineFor(w)
	cfg.GHBSize = 2
	cfg.Degree = 4

	defer Observe()()
	b := newBatch("corrupt-chunk")
	got := b.ctrPoint("lva/"+w.Name(), lvaPoint(w, cfg, DefaultSeed))
	b.run()

	mc := memsim.DefaultConfig()
	mc.Attach = memsim.AttachLVA
	mc.Approx = cfg
	sim := memsim.New(mc)
	w.Run(sim, DefaultSeed)
	if want := sim.Result(); *got != want {
		t.Errorf("fallback result differs from direct execution:\nwant %+v\ngot  %+v", want, *got)
	}
	if ts := TraceCounters(); ts.ExecPoints != 1 || ts.ReplayPoints != 0 {
		t.Errorf("counters = %+v, want 1 exec point and 0 replay points", ts)
	}

	_, m := provManifest(t)
	if problems := m.Validate(); len(problems) != 0 {
		t.Errorf("manifest does not reconcile:\n%v", problems)
	}
	found := false
	for _, r := range m.Records {
		if r.Figure == "corrupt-chunk" && r.Why == provWhyReplayFail && r.Route == string(prov.RouteExec) {
			found = true
		}
	}
	if !found {
		t.Error("no provenance record justifying the exec fallback (want why=replay failed)")
	}
}

// countingWorkload is a workload that counts its kernel executions. runs
// is a pointer so that the design-point key, which renders the workload
// with %#v, does not change as it counts.
type countingWorkload struct {
	workloads.Workload
	runs *atomic.Int64
}

func (c countingWorkload) Run(mem *memsim.Sim, seed uint64) workloads.Output {
	c.runs.Add(1)
	return c.Workload.Run(mem, seed)
}

// TestPhase2RunsEachKernelOnce pins phase 2's kernel executions: from an
// empty run cache, a workload's Figure 10/11 sweep executes its precise
// kernel exactly once and gets the same results whatever the trace store
// holds: a healthy store, a precise recording with a corrupt chunk under a
// valid footer, or no store at all (a trace directory that cannot be
// created). Phase 2 captures the stream during that one execution and
// never reads the store, and provenance shows every phase-2 point on the
// exec route.
func TestPhase2RunsEachKernelOnce(t *testing.T) {
	t.Setenv("LVA_TRACE_DIR", t.TempDir())
	ResetRunCache()
	defer ResetRunCache()
	w := countingWorkload{workloads.NewSwaptions(), new(atomic.Int64)}
	cfgs := sweepConfigs(w)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		setup func(t *testing.T)
	}{
		{"writable trace dir", func(*testing.T) {}},
		{"corrupt chunk", func(t *testing.T) {
			// As in TestTraceStoreCorruptChunkFallsBackToExec: the first
			// chunk header goes, the footer still reads.
			st := ensureStream(precisePoint(w, DefaultSeed))
			if st.path == "" {
				t.Fatal("recording failed")
			}
			f, err := os.OpenFile(st.path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 8), 8); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			ResetRunCache()
		}},
		{"uncreatable trace dir", func(t *testing.T) {
			t.Setenv("LVA_TRACE_DIR", filepath.Join(blocker, "traces"))
		}},
	}
	var want []fullsys.Result
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ResetRunCache()
			c.setup(t)
			w.runs.Store(0)
			defer Observe()()

			got := fullsysResults(w, cfgs)
			if n := w.runs.Load(); n != 1 {
				t.Errorf("phase 2 executed the kernel %d times, want 1", n)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("results differ from the writable trace dir's:\nwant %+v\ngot  %+v", want, got)
			}

			_, m := provManifest(t)
			if problems := m.Validate(); len(problems) != 0 {
				t.Errorf("manifest does not reconcile:\n%v", problems)
			}
			var exec uint64
			for _, r := range m.Records {
				if r.Figure != "fullsys" {
					continue
				}
				if r.Route != string(prov.RouteExec) || r.Why != provWhyCapture {
					t.Errorf("fullsys record %s on route %s (%s), want exec (%s)", r.Label, r.Route, r.Why, provWhyCapture)
				}
				exec += r.Count
			}
			if exec != uint64(len(cfgs)) {
				t.Errorf("%d fullsys points on route exec, want %d", exec, len(cfgs))
			}
		})
	}
}

// TestFullsysPointIdentity pins the phase-2 design-point identity:
// fingerprints and memo cells cover the whole full-system configuration,
// so another machine or training lane under a Figure 10 label gets its own
// record, while a configuration Figure 10 already ran (ext-mlp's Table II
// row) is a memo hit that adds no record.
func TestFullsysPointIdentity(t *testing.T) {
	SetTraceDir(t.TempDir())
	defer SetTraceDir("")
	ResetRunCache()
	defer ResetRunCache()
	defer Observe()()
	w := workloads.NewSwaptions()

	FullSystemResult(w, 4)
	narrow := fullsys.DefaultConfig()
	narrow.ROB, narrow.MSHRs = 16, 4
	fullsysResults(w, []fullsys.Config{narrow})
	acfg := BaselineFor(w)
	acfg.Degree = 4
	acfg.ValueDelay = 1
	slow := fullsys.DefaultConfig()
	slow.Approx = &acfg
	slow.TrainingLane = fullsys.DefaultTrainingLane()
	fullsysResults(w, []fullsys.Config{slow})

	fingerprints := func() map[string]uint64 {
		_, m := provManifest(t)
		if problems := m.Validate(); len(problems) != 0 {
			t.Fatalf("manifest does not reconcile:\n%v", problems)
		}
		fps := make(map[string]uint64)
		for _, r := range m.Records {
			if r.Figure != "fullsys" {
				continue
			}
			if r.Count != 1 {
				t.Errorf("fullsys record %s (%s) has count %d, want 1", r.Label, r.Fingerprint, r.Count)
			}
			fps[r.Fingerprint] += r.Count
		}
		return fps
	}
	fps := fingerprints()
	if want := 1 + len(fullsysDegrees) + 2; len(fps) != want {
		t.Errorf("%d distinct fullsys fingerprints, want %d (Figure 10's sweep, ROB-16/MSHR-4, slow lane)", len(fps), want)
	}

	tableII := fullsys.DefaultConfig()
	tableII.ROB, tableII.MSHRs = 32, 8
	fullsysResults(w, []fullsys.Config{tableII})
	if again := fingerprints(); !reflect.DeepEqual(again, fps) {
		t.Errorf("re-running Figure 10's precise machine added records:\nbefore %v\nafter  %v", fps, again)
	}
}

// phase2Accesses is the accesses of the seven precise streams at
// DefaultSeed: what phase 2 files for Figures 10 and 11.
const phase2Accesses = 6626866

// TestPhase2CapturesEachStreamOnce pins phase 2's capture-once contract:
// Figures 10 and 11 run concurrently from empty memos and an empty store,
// yet every precise stream is captured exactly once for their twelve
// shared configurations: seven kernel simulations, no recapture and no
// recording, and the precise phase-2 results account for every access of
// the seven precise runs.
func TestPhase2CapturesEachStreamOnce(t *testing.T) {
	dir := t.TempDir()
	SetTraceDir(dir)
	defer SetTraceDir("")
	ResetRunCache()
	defer ResetRunCache()

	if _, err := RunAll("fig10", "fig11"); err != nil {
		t.Fatal(err)
	}
	if sims := RunCacheCounters().Simulated; sims != uint64(len(workloads.All())) {
		t.Errorf("Figures 10 and 11 made %d kernel simulations, want %d: one capture per precise stream", sims, len(workloads.All()))
	}
	if ts := TraceCounters(); ts.Recordings != 0 || ts.Recaptures != 0 {
		t.Errorf("trace store = %+v, want no recording and no recapture", ts)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("phase 2 wrote %d file(s) to the trace store", len(left))
	}
	// Each precise run is a run-cache hit now, and its per-core access
	// counts are in the memoized precise phase-2 result.
	var accesses, filed uint64
	for _, w := range workloads.All() {
		r := RunPrecise(w, DefaultSeed).Sim
		accesses += r.Loads + r.Stores
		precise, _ := FullSystemResult(w, 0)
		for _, c := range precise.PerCore {
			filed += uint64(c.Accesses)
		}
	}
	if accesses != phase2Accesses {
		t.Errorf("the precise runs made %d accesses, want %d", accesses, phase2Accesses)
	}
	if filed != accesses {
		t.Errorf("the precise phase-2 runs stepped %d accesses, want the precise runs' %d", filed, accesses)
	}
}
