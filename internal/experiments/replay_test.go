package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"lva/internal/memsim"
	"lva/internal/prefetch"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// attachCase is one (attachment, configuration) design point used by the
// replay-fidelity tests.
type attachCase struct {
	name string
	cfg  memsim.Config
}

// attachCases returns the four attachment modes at their baseline
// configurations for w.
func attachCases(w workloads.Workload) []attachCase {
	precise := memsim.DefaultConfig()
	precise.Attach = memsim.AttachNone

	lva := memsim.DefaultConfig()
	lva.Attach = memsim.AttachLVA
	lva.Approx = BaselineFor(w)

	lvp := memsim.DefaultConfig()
	lvp.Attach = memsim.AttachLVP
	lvp.Approx = BaselineFor(w)

	pf := memsim.DefaultConfig()
	pf.Attach = memsim.AttachPrefetch
	pcfg := prefetch.DefaultConfig()
	pcfg.Degree = 4
	pf.Prefetch = pcfg

	return []attachCase{
		{"precise", precise},
		{"lva-baseline", lva},
		{"lvp-baseline", lvp},
		{"prefetch-4", pf},
	}
}

// recordGrid executes w under cfg with the grid capture sink attached and
// returns the encoded stream, its header, and the executed counters.
func recordGrid(t *testing.T, w workloads.Workload, cfg memsim.Config) ([]byte, trace.GridHeader, memsim.Result) {
	t.Helper()
	var buf bytes.Buffer
	gw := trace.NewGridWriter(&buf, w.Name(), "test/"+w.Name(), DefaultSeed)
	sim := memsim.New(cfg)
	sim.SetCapture(gw)
	w.Run(sim, DefaultSeed)
	res := sim.Result()
	hdr, err := gw.Finish(res.Instructions, nil)
	if err != nil {
		t.Fatalf("%s: finishing grid capture: %v", w.Name(), err)
	}
	return buf.Bytes(), hdr, res
}

// replayGrid decodes an encoded stream once and drives one fresh simulator
// per configuration, returning their counters in order.
func replayGrid(t *testing.T, enc []byte, hdr trace.GridHeader, cfgs []memsim.Config) []memsim.Result {
	t.Helper()
	gr, err := trace.NewGridReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("opening grid reader: %v", err)
	}
	sims := make([]*memsim.Sim, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = memsim.New(cfg)
	}
	if err := memsim.Replay(gr, hdr.Instructions, sims); err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := make([]memsim.Result, len(sims))
	for i, s := range sims {
		out[i] = s.Result()
	}
	return out
}

// execute runs w under cfg with no capture attached and returns its
// counters — the ground truth replay must reproduce.
func execute(w workloads.Workload, cfg memsim.Config) memsim.Result {
	sim := memsim.New(cfg)
	w.Run(sim, DefaultSeed)
	return sim.Result()
}

// TestReplayMatchesExecution is the fidelity contract of the grid pipeline:
// for every workload and every attachment mode, recording the annotated
// stream and replaying it through a fresh simulator of the same
// configuration yields counters identical to direct execution — misses,
// fetches, coverage, trainings, every field of memsim.Result.
func TestReplayMatchesExecution(t *testing.T) {
	if raceEnabled {
		t.Skip("28 instrumented kernel executions exceed the race budget; TestFigureGoldenHashes exercises replay under race")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			for _, tc := range attachCases(w) {
				enc, hdr, executed := recordGrid(t, w, tc.cfg)
				replayed := replayGrid(t, enc, hdr, []memsim.Config{tc.cfg})[0]
				if executed != replayed {
					t.Errorf("%s: replayed counters differ from execution:\nexecuted: %+v\nreplayed: %+v", tc.name, executed, replayed)
				}
				if hdr.Accesses == 0 {
					t.Errorf("%s: recorded stream is empty", tc.name)
				}
			}
		})
	}
}

// TestPreciseStreamServesAnyConfig is the routing contract behind the
// replay scheduler: one precise recording serves every LVP and prefetch
// configuration exactly (neither ever hands a value back to the kernel),
// and on feedback-free kernels it serves arbitrary LVA configurations too.
// A single decode pass drives all design points at once.
func TestPreciseStreamServesAnyConfig(t *testing.T) {
	if raceEnabled {
		t.Skip("per-workload execute-vs-replay sweeps exceed the race budget; TestFigureGoldenHashes exercises replay under race")
	}
	precise := memsim.DefaultConfig()
	precise.Attach = memsim.AttachNone
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			enc, hdr, _ := recordGrid(t, w, precise)

			var cases []attachCase
			for _, ghb := range []int{0, 2} {
				cfg := memsim.DefaultConfig()
				cfg.Attach = memsim.AttachLVP
				cfg.Approx = BaselineFor(w)
				cfg.Approx.GHBSize = ghb
				cases = append(cases, attachCase{fmt.Sprintf("lvp-ghb-%d", ghb), cfg})
			}
			for _, deg := range []int{1, 8} {
				cfg := memsim.DefaultConfig()
				cfg.Attach = memsim.AttachPrefetch
				pcfg := prefetch.DefaultConfig()
				pcfg.Degree = deg
				cfg.Prefetch = pcfg
				cases = append(cases, attachCase{fmt.Sprintf("prefetch-%d", deg), cfg})
			}
			if w.FeedbackFree() {
				cfg := memsim.DefaultConfig()
				cfg.Attach = memsim.AttachLVA
				cfg.Approx = BaselineFor(w)
				cfg.Approx.GHBSize = 2
				cfg.Approx.Degree = 4
				cases = append(cases, attachCase{"lva-ghb-2-deg-4", cfg})
			}

			cfgs := make([]memsim.Config, len(cases))
			for i, c := range cases {
				cfgs[i] = c.cfg
			}
			replayed := replayGrid(t, enc, hdr, cfgs)
			for i, c := range cases {
				if executed := execute(w, c.cfg); executed != replayed[i] {
					t.Errorf("%s: precise-stream replay differs from execution:\nexecuted: %+v\nreplayed: %+v", c.name, executed, replayed[i])
				}
			}
		})
	}
}

// TestStreamRecordOnce pins the dedup accounting of the trace store across
// three counter figures: each distinct (kind, workload, seed) stream is
// simulated from the kernel at most once per process, and a second
// "process" (ResetRunCache with the trace directory kept) serves the whole
// of Table 1 from on-disk footers with zero simulation.
func TestStreamRecordOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three figures twice")
	}
	if raceEnabled {
		t.Skip("29 kernel simulations exceed the race budget; the replay paths run race-instrumented under TestFigureGoldenHashes")
	}
	SetTraceDir(t.TempDir())
	defer SetTraceDir("")
	ResetRunCache()
	defer ResetRunCache()

	cold := Table1().String()
	Fig4()
	Fig12()

	ts := TraceCounters()
	// Streams: 7 precise + 7 LVA-baseline, each recorded exactly once even
	// though Table 1, Fig 4 and Fig 12 all touch them.
	if ts.Recordings != 14 {
		t.Errorf("Recordings = %d, want 14 (7 precise + 7 lvabase)", ts.Recordings)
	}
	// Header points: Table 1 (7 precise + 7 baseline) + Fig 4 (7 precise +
	// 7 LVA-GHB-0 baselines) + Fig 12 (7 baselines).
	if ts.HeaderHits != 35 {
		t.Errorf("HeaderHits = %d, want 35", ts.HeaderHits)
	}
	// Fig 4 replays: 28 LVP points (4 GHB sizes x 7) plus LVA GHB 1/2/4 on
	// the two feedback-free kernels; one decode pass per workload.
	if ts.ReplayPoints != 34 {
		t.Errorf("ReplayPoints = %d, want 34 (28 LVP + 6 feedback-free LVA)", ts.ReplayPoints)
	}
	if ts.ReplayPasses != 7 {
		t.Errorf("ReplayPasses = %d, want 7 (one decode per workload)", ts.ReplayPasses)
	}
	// Fig 4's LVA GHB 1/2/4 points on the five feedback kernels must
	// re-execute: their annotated loads observe approximator output.
	if ts.ExecPoints != 15 {
		t.Errorf("ExecPoints = %d, want 15 (3 GHB sizes x 5 feedback kernels)", ts.ExecPoints)
	}
	// Kernel executions overall: the 14 recordings plus the 15 feedback
	// points. Nothing else touches a kernel.
	if s := RunCacheCounters(); s.Simulated != 29 {
		t.Errorf("Simulated = %d, want 29 (14 recordings + 15 feedback points): %+v", s.Simulated, s)
	}

	// Second process: the run cache resets but the explicit trace directory
	// survives, so Table 1 is served entirely from recorded footers.
	ResetRunCache()
	warm := Table1().String()
	if warm != cold {
		t.Errorf("warm-store Table 1 differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	ts = TraceCounters()
	if ts.Recordings != 0 {
		t.Errorf("warm store re-recorded %d streams, want 0", ts.Recordings)
	}
	if ts.HeaderHits != 14 {
		t.Errorf("warm HeaderHits = %d, want 14", ts.HeaderHits)
	}
	if s := RunCacheCounters(); s.Simulated != 0 {
		t.Errorf("warm store simulated %d kernels, want 0: %+v", s.Simulated, s)
	}
}

// TestFigureGoldenHashesReplayOff renders the full registry with the
// record/replay pipeline disabled and checks every figure against the same
// golden hashes the replay-enabled run must match — the two execution
// strategies are byte-equivalent.
func TestFigureGoldenHashesReplayOff(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full registry")
	}
	if raceEnabled {
		t.Skip("a second full-registry render exceeds the race budget; the replay-on twin runs race-instrumented")
	}
	SetReplayEnabled(false)
	defer SetReplayEnabled(true)
	ResetRunCache()
	defer ResetRunCache()

	got := figureHashes(t)
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden: reading %s: %v", goldenPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden: parsing %s: %v", goldenPath, err)
	}
	for id, h := range got {
		if w, ok := want[id]; ok && h != w {
			t.Errorf("golden: figure %q with replay off hashed %s, want %s — execution and replay disagree", id, h, w)
		}
	}
}
