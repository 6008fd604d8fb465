package core

import (
	"math"
	"testing"
	"testing/quick"

	"lva/internal/value"
)

// immediate returns a baseline config with no value delay so trainings
// commit synchronously, which most behavioural tests want.
func immediate() Config {
	cfg := DefaultConfig()
	cfg.ValueDelay = 0
	return cfg
}

// train pushes n identical actual values through the approximator at pc.
func train(a *Approximator, pc uint64, v value.Value, n int) {
	for i := 0; i < n; i++ {
		a.OnMiss(pc, v)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TableEntries = 0 },
		func(c *Config) { c.TableEntries = 500 }, // not pow2
		func(c *Config) { c.TagBits = 0 },
		func(c *Config) { c.TagBits = 64 },
		func(c *Config) { c.ConfidenceBits = 0 },
		func(c *Config) { c.ConfidenceBits = 9 },
		func(c *Config) { c.GHBSize = -1 },
		func(c *Config) { c.GHBSize = MaxHistoryDepth + 1 },
		func(c *Config) { c.GHBSize = 100000000000 },
		func(c *Config) { c.LHBSize = 0 },
		func(c *Config) { c.LHBSize = MaxHistoryDepth + 1 },
		func(c *Config) { c.LHBSize = 100000000000 },
		func(c *Config) { c.Window = math.NaN() },
		func(c *Config) { c.Degree = -1 },
		func(c *Config) { c.ValueDelay = -1 },
		func(c *Config) { c.MantissaLoss = 24 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfBounds(t *testing.T) {
	c := DefaultConfig()
	if c.ConfMin() != -8 || c.ConfMax() != 7 {
		t.Fatalf("4-bit confidence bounds: [%d,%d]", c.ConfMin(), c.ConfMax())
	}
}

func TestStorageBitsMatchesPaperEstimate(t *testing.T) {
	// Paper §VII-A: ~18 KB at 64-bit values, ~10 KB at 32-bit for the
	// 512-entry baseline. Allow generous slack for bookkeeping bits.
	c := DefaultConfig()
	kb64 := float64(c.StorageBits(64)) / 8 / 1024
	kb32 := float64(c.StorageBits(32)) / 8 / 1024
	if kb64 < 16 || kb64 > 20 {
		t.Errorf("64-bit storage = %.1f KB, paper says ~18 KB", kb64)
	}
	if kb32 < 8 || kb32 > 12 {
		t.Errorf("32-bit storage = %.1f KB, paper says ~10 KB", kb32)
	}
}

func TestColdMissFetchesAndDoesNotApproximate(t *testing.T) {
	a := New(immediate())
	d := a.OnMiss(0x400, value.FromInt(7))
	if d.Approximated {
		t.Fatal("cold miss must not approximate")
	}
	if !d.Fetch {
		t.Fatal("cold miss must fetch to train")
	}
	if a.Stats().NoEntry != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestIntegerApproximationWithoutConfidence(t *testing.T) {
	a := New(immediate()) // baseline: no confidence for integers
	train(a, 0x400, value.FromInt(10), 2)
	d := a.OnMiss(0x400, value.FromInt(99))
	if !d.Approximated {
		t.Fatal("integer load with history must be approximated")
	}
	if d.Value.Int() != 10 {
		t.Fatalf("approximation = %v, want average of history (10)", d.Value.Int())
	}
	if !d.Fetch {
		t.Fatal("degree 0 must always fetch")
	}
}

func TestAverageComputation(t *testing.T) {
	a := New(immediate())
	for _, v := range []int64{8, 10, 12, 14} {
		a.OnMiss(0x400, value.FromInt(v))
	}
	d := a.OnMiss(0x400, value.FromInt(0))
	if !d.Approximated || d.Value.Int() != 11 {
		t.Fatalf("average of LHB {8,10,12,14} = %v, want 11", d.Value.Int())
	}
}

func TestLHBCapacity(t *testing.T) {
	cfg := immediate()
	cfg.LHBSize = 2
	a := New(cfg)
	for _, v := range []int64{100, 1, 3} { // 100 must age out
		a.OnMiss(0x400, value.FromInt(v))
	}
	d := a.OnMiss(0x400, value.FromInt(0))
	if d.Value.Int() != 2 {
		t.Fatalf("LHB must keep only the last 2 values: avg = %v, want 2", d.Value.Int())
	}
}

func TestFloatConfidenceGate(t *testing.T) {
	a := New(immediate())
	// Erratic float values: averages miss the ±10% window, confidence
	// sinks below zero, approximations stop.
	vals := []float64{1, 1000, 2, 2000, 3, 3000, 4, 4000}
	for _, v := range vals {
		a.OnMiss(0x400, value.FromFloat(v))
	}
	d := a.OnMiss(0x400, value.FromFloat(5))
	if d.Approximated {
		t.Fatal("low confidence must suppress FP approximation")
	}
	if !d.Fetch {
		t.Fatal("suppressed approximation must still fetch")
	}
	if a.Stats().LowConfidence == 0 {
		t.Fatal("low-confidence events must be counted")
	}
}

func TestFloatConfidenceRecovers(t *testing.T) {
	a := New(immediate())
	// Stable values: every training is within the window; confidence
	// stays >= 0 and approximations flow.
	train(a, 0x400, value.FromFloat(50), 3)
	d := a.OnMiss(0x400, value.FromFloat(50))
	if !d.Approximated || d.Value.Float() != 50 {
		t.Fatalf("stable FP stream must approximate: %+v", d)
	}
	if conf, ok := a.EntryConfidence(0x400); !ok || conf <= 0 {
		t.Fatalf("confidence should be positive, got %d (ok=%v)", conf, ok)
	}
}

func TestConfidenceSaturation(t *testing.T) {
	cfg := immediate()
	a := New(cfg)
	train(a, 0x400, value.FromFloat(50), 100)
	if conf, _ := a.EntryConfidence(0x400); conf != cfg.ConfMax() {
		t.Fatalf("confidence must saturate at %d, got %d", cfg.ConfMax(), conf)
	}
	// Now feed alternating magnitudes (averages are never within ±10% of
	// either extreme); the counter must floor at ConfMin.
	for i := 0; i < 100; i++ {
		v := 1.0
		if i%2 == 0 {
			v = 1e6
		}
		a.OnMiss(0x400, value.FromFloat(v))
	}
	if conf, _ := a.EntryConfidence(0x400); conf != cfg.ConfMin() {
		t.Fatalf("confidence must floor at %d, got %d", cfg.ConfMin(), conf)
	}
}

func TestIntConfidenceFlag(t *testing.T) {
	cfg := immediate()
	cfg.IntConfidence = true
	a := New(cfg)
	// Erratic integers now hit the confidence gate too.
	for _, v := range []int64{1, 1000, 2, 2000, 3, 3000, 4, 4000} {
		a.OnMiss(0x400, value.FromInt(v))
	}
	d := a.OnMiss(0x400, value.FromInt(5))
	if d.Approximated {
		t.Fatal("IntConfidence must gate integer approximations")
	}
}

func TestInfiniteWindowNeverRejects(t *testing.T) {
	cfg := immediate()
	cfg.Window = -1
	a := New(cfg)
	for _, v := range []float64{1, 1e6, 2, 2e6} {
		a.OnMiss(0x400, value.FromFloat(v))
	}
	d := a.OnMiss(0x400, value.FromFloat(3))
	if !d.Approximated {
		t.Fatal("infinite window must always approximate once history exists")
	}
	if a.Stats().ConfRejects != 0 {
		t.Fatalf("infinite window must never reject: %+v", a.Stats())
	}
}

func TestApproximationDegreeFetchRatio(t *testing.T) {
	// Degree D: 1 fetch per D+1 covered misses (paper §III-C: degree 4
	// yields a 1:5 fetch-to-miss ratio).
	for _, degree := range []int{1, 4, 16} {
		cfg := immediate()
		cfg.Degree = degree
		a := New(cfg)
		train(a, 0x400, value.FromInt(10), 1) // cold fetch seeds the LHB
		fetches := 0
		const misses = 1000 // multiple of common degree+1 values not needed
		for i := 0; i < misses; i++ {
			d := a.OnMiss(0x400, value.FromInt(10))
			if !d.Approximated {
				t.Fatalf("degree %d: miss %d not approximated", degree, i)
			}
			if d.Fetch {
				fetches++
			}
		}
		want := misses / (degree + 1)
		if fetches < want-1 || fetches > want+1 {
			t.Errorf("degree %d: %d fetches for %d misses, want ~%d",
				degree, fetches, misses, want)
		}
	}
}

func TestDegreeReusesSameValue(t *testing.T) {
	cfg := immediate()
	cfg.Degree = 4
	a := New(cfg)
	train(a, 0x400, value.FromInt(10), 1)
	var first int64
	for i := 0; i < 4; i++ {
		d := a.OnMiss(0x400, value.FromInt(int64(100+i)))
		if i == 0 {
			first = d.Value.Int()
		} else if d.Value.Int() != first {
			t.Fatalf("value must be reused while the degree counter drains")
		}
		if d.Fetch {
			t.Fatalf("miss %d must elide the fetch", i)
		}
	}
}

func TestValueDelayDefersTraining(t *testing.T) {
	cfg := DefaultConfig() // ValueDelay = 4
	a := New(cfg)
	a.OnMiss(0x400, value.FromInt(10))
	if a.PendingTrainings() != 1 {
		t.Fatalf("pending = %d, want 1", a.PendingTrainings())
	}
	// History must still be empty: an immediate second miss cannot use it.
	d := a.OnMiss(0x400, value.FromInt(10))
	if d.Approximated {
		t.Fatal("training must not be visible before the value delay elapses")
	}
	for i := 0; i < 4; i++ {
		a.OnLoad()
	}
	if a.PendingTrainings() != 0 {
		t.Fatalf("pending = %d after delay, want 0", a.PendingTrainings())
	}
	d = a.OnMiss(0x400, value.FromInt(10))
	if !d.Approximated {
		t.Fatal("after the delay the entry must approximate")
	}
}

func TestDrainCommitsPending(t *testing.T) {
	a := New(DefaultConfig())
	a.OnMiss(0x400, value.FromInt(5))
	a.Drain()
	if a.PendingTrainings() != 0 {
		t.Fatal("Drain must flush pending trainings")
	}
	if a.Stats().Trainings != 1 {
		t.Fatalf("trainings = %d", a.Stats().Trainings)
	}
}

func TestLVPModeExactMatchOnly(t *testing.T) {
	cfg := immediate()
	cfg.Mode = ModeLVP
	cfg.Window = 0
	a := New(cfg)
	train(a, 0x400, value.FromFloat(1.0), 3)
	// Exact value in LHB: correct prediction.
	d := a.OnMiss(0x400, value.FromFloat(1.0))
	if !d.Approximated || !d.Correct {
		t.Fatalf("LVP with exact match must predict: %+v", d)
	}
	if !d.Fetch {
		t.Fatal("LVP must always fetch to validate")
	}
	// Close-but-not-exact: no coverage.
	d = a.OnMiss(0x400, value.FromFloat(1.0000001))
	if d.Approximated {
		t.Fatal("LVP must not cover approximate matches")
	}
}

func TestLVPDegreeIgnored(t *testing.T) {
	// In LVP mode every miss fetches regardless of the degree setting the
	// memsim layer forces; here we verify the mode's own behaviour.
	cfg := immediate()
	cfg.Mode = ModeLVP
	a := New(cfg)
	train(a, 0x400, value.FromInt(1), 5)
	for i := 0; i < 10; i++ {
		if d := a.OnMiss(0x400, value.FromInt(1)); !d.Fetch {
			t.Fatal("LVP must fetch on every miss")
		}
	}
}

func TestGHBChangesIndexing(t *testing.T) {
	cfg := immediate()
	cfg.GHBSize = 2
	a := New(cfg)
	// Establish history under one global context.
	train(a, 0x400, value.FromInt(10), 4)
	// A different PC writes different values into the GHB, changing the
	// context for 0x400; the entry may no longer match.
	train(a, 0x999, value.FromInt(777777), 2)
	d := a.OnMiss(0x400, value.FromInt(10))
	// With GHB context shifted, the original entry is unreachable: the
	// approximator behaves as cold (this is the paper's observation that
	// larger GHBs hurt coverage for fine-grained values).
	if d.Approximated {
		t.Log("note: context happened to alias; acceptable but unlikely")
	}
	if a.Stats().Misses == 0 {
		t.Fatal("stats must accumulate")
	}
}

func TestMantissaLossImprovesFloatLocality(t *testing.T) {
	mk := func(loss int) *Approximator {
		cfg := immediate()
		cfg.GHBSize = 2
		cfg.Window = -1
		cfg.MantissaLoss = loss
		return New(cfg)
	}
	// Values jitter in the low mantissa bits; with truncation the GHB
	// context is stable, without it the context never repeats.
	run := func(a *Approximator) uint64 {
		base := 1.0
		for i := 0; i < 200; i++ {
			jitter := float64(i%7) * 1e-7
			a.OnMiss(0x400, value.FromFloat(base+jitter))
		}
		return a.Stats().Approximations
	}
	full := run(mk(0))
	trunc := run(mk(23))
	if trunc <= full {
		t.Fatalf("mantissa truncation must raise coverage: full=%d trunc=%d", full, trunc)
	}
}

func TestResetClearsState(t *testing.T) {
	a := New(immediate())
	train(a, 0x400, value.FromInt(10), 5)
	a.Reset()
	if a.Stats() != (Stats{}) {
		t.Fatal("Reset must clear stats")
	}
	d := a.OnMiss(0x400, value.FromInt(10))
	if d.Approximated {
		t.Fatal("Reset must clear table state")
	}
}

func TestTagAliasingRetags(t *testing.T) {
	cfg := immediate()
	cfg.TableEntries = 1 // everything aliases to entry 0
	cfg.GHBSize = 0
	a := New(cfg)
	train(a, 0x01, value.FromInt(10), 3)
	// A different PC maps to the same entry with a different tag: the
	// newcomer must evict and retag, not reuse the old history.
	d := a.OnMiss(0x02<<30, value.FromInt(99))
	if d.Approximated {
		t.Fatal("tag mismatch must not approximate from stale history")
	}
}

func TestStatsCoverage(t *testing.T) {
	a := New(immediate())
	train(a, 0x400, value.FromInt(1), 4)
	st := a.Stats()
	if st.Coverage() < 0 || st.Coverage() > 1 {
		t.Fatalf("coverage out of range: %v", st.Coverage())
	}
	if (Stats{}).Coverage() != 0 {
		t.Fatal("empty coverage must be 0")
	}
}

func TestStatsInvariants(t *testing.T) {
	// Property: for any random mixed-value stream, the bookkeeping holds:
	// approximations <= misses, fetches + elided == misses covered+uncovered
	// consistency, trainings <= fetches.
	f := func(vals []int32, degSel uint8) bool {
		cfg := immediate()
		cfg.Degree = int(degSel % 5)
		a := New(cfg)
		for i, v := range vals {
			pc := uint64(0x400 + (i%3)*8)
			a.OnMiss(pc, value.FromInt(int64(v%50)))
		}
		a.Drain()
		st := a.Stats()
		if st.Approximations > st.Misses {
			return false
		}
		if st.Fetches+st.ElidedFetches != st.Misses {
			return false
		}
		return st.Trainings <= st.Fetches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestModeAndComputeStrings(t *testing.T) {
	if ModeLVA.String() != "LVA" || ModeLVP.String() != "LVP" {
		t.Fatal("mode strings")
	}
	if ComputeAverage.String() != "average" || ComputeLast.String() != "last" || ComputeStride.String() != "stride" {
		t.Fatal("compute strings")
	}
}

func TestComputeKinds(t *testing.T) {
	for _, tc := range []struct {
		kind ComputeKind
		want int64
	}{
		{ComputeAverage, 20}, // avg(10,20,30) = 20
		{ComputeLast, 30},
		{ComputeStride, 40}, // 30 + (30-20)
	} {
		cfg := immediate()
		cfg.Compute = tc.kind
		a := New(cfg)
		for _, v := range []int64{10, 20, 30} {
			a.OnMiss(0x400, value.FromInt(v))
		}
		d := a.OnMiss(0x400, value.FromInt(0))
		if !d.Approximated || d.Value.Int() != tc.want {
			t.Errorf("%v: got %v, want %v", tc.kind, d.Value.Int(), tc.want)
		}
	}
}
