package fullsys

import (
	"io"
	"testing"

	"lva/internal/core"
	"lva/internal/trace"
	"lva/internal/value"
)

// oneChunk is a ChunkSource that yields its accesses as a single chunk.
// Decode reads no instruction indices, so it supplies none.
type oneChunk struct {
	accs []trace.Access
	done bool
}

func (c *oneChunk) Next() ([]trace.Access, []uint64, error) {
	if c.done || len(c.accs) == 0 {
		return nil, nil, io.EOF
	}
	c.done = true
	return c.accs, nil, nil
}

// runStream streams accs through a fresh Sim as one chunk, declaring threads up
// to the highest thread id present.
func runStream(t *testing.T, cfg Config, accs []trace.Access) Result {
	t.Helper()
	threads := 0
	for _, a := range accs {
		threads = max(threads, int(a.Thread)+1)
	}
	r, err := New(cfg).RunStream(threads, &oneChunk{accs: accs})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return r
}

// mkTrace builds a single-thread trace of loads at the given block-aligned
// addresses, all with value 10, optionally approximate.
func mkTrace(addrs []uint64, gap uint32, approx bool) []trace.Access {
	var tr []trace.Access
	for _, a := range addrs {
		tr = append(tr, trace.Access{
			PC: 0x400, Addr: a, Value: value.FromInt(10),
			Gap: gap, Thread: 0, Op: trace.Load, Approx: approx,
		})
	}
	return tr
}

func approxCfg(degree int) *core.Config {
	c := core.DefaultConfig()
	c.Degree = degree
	c.ValueDelay = 1
	return &c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 5 }, // more than mesh nodes
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROB = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.L1.SizeBytes = 0 },
		func(c *Config) { c.L2.Ways = 0 },
		func(c *Config) { c.NoC.Width = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	r := runStream(t, DefaultConfig(), nil)
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Fatalf("empty trace result = %+v", r)
	}
}

func TestHitsAreFast(t *testing.T) {
	// Same block loaded repeatedly: one miss, then hits; runtime is
	// dominated by the single miss.
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = 0x1000
	}
	r := runStream(t, DefaultConfig(), mkTrace(addrs, 0, false))
	if r.L1LoadMisses != 1 {
		t.Fatalf("misses = %d, want 1", r.L1LoadMisses)
	}
	if r.Cycles > 1000 {
		t.Fatalf("hit-dominated run too slow: %d cycles", r.Cycles)
	}
}

func TestMissStallsWithROB(t *testing.T) {
	// Back-to-back misses to distinct blocks with no compute gap: the ROB
	// lets up to 32 instructions slide before stalling on the oldest.
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + i*64)
	}
	r := runStream(t, DefaultConfig(), mkTrace(addrs, 0, false))
	if r.L1LoadMisses != 64 {
		t.Fatalf("misses = %d", r.L1LoadMisses)
	}
	if r.StallCycles == 0 {
		t.Fatal("uncovered misses must stall eventually")
	}
	if r.Fetches != 64 {
		t.Fatalf("fetches = %d", r.Fetches)
	}
}

func TestCoveredMissesDontStall(t *testing.T) {
	// Warm an approximator entry, then miss a lot: with LVA attached and
	// integer data, every miss is covered and the core never waits.
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + i*64)
	}
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(0)
	r := runStream(t, cfg, mkTrace(addrs, 0, true))
	if r.Covered < 150 {
		t.Fatalf("covered = %d of %d misses", r.Covered, r.L1LoadMisses)
	}
	pr := runStream(t, DefaultConfig(), mkTrace(addrs, 0, true))
	if r.Cycles >= pr.Cycles {
		t.Fatalf("LVA must be faster: %d vs %d cycles", r.Cycles, pr.Cycles)
	}
}

func TestDegreeElidesTraffic(t *testing.T) {
	addrs := make([]uint64, 400)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + i*64)
	}
	run := func(deg int) Result {
		cfg := DefaultConfig()
		cfg.Approx = approxCfg(deg)
		return runStream(t, cfg, mkTrace(addrs, 0, true))
	}
	d0, d16 := run(0), run(16)
	if d16.Fetches >= d0.Fetches {
		t.Fatalf("degree 16 must elide fetches: %d vs %d", d16.Fetches, d0.Fetches)
	}
	if d16.FlitHops >= d0.FlitHops {
		t.Fatalf("degree 16 must reduce traffic: %d vs %d", d16.FlitHops, d0.FlitHops)
	}
	if d16.Energy.TotalPJ() >= d0.Energy.TotalPJ() {
		t.Fatalf("degree 16 must save energy: %.3g vs %.3g",
			d16.Energy.TotalPJ(), d0.Energy.TotalPJ())
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	var tr []trace.Access
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Access{
			PC: 0x500, Addr: uint64(0x2000 + i*64), Gap: 0,
			Thread: 0, Op: trace.Store,
		})
	}
	r := runStream(t, DefaultConfig(), tr)
	if r.Stores != 50 {
		t.Fatalf("stores = %d", r.Stores)
	}
	// Store misses fetch but the only stalls allowed are MSHR back-pressure.
	if r.Fetches != 50 {
		t.Fatalf("write-allocate fetches = %d", r.Fetches)
	}
}

func TestCoherenceInvalidations(t *testing.T) {
	// Two threads ping-pong a block: thread 0 stores, thread 1 loads.
	var tr []trace.Access
	for i := 0; i < 20; i++ {
		tr = append(tr, trace.Access{PC: 0x600, Addr: 0x4000, Gap: 10, Thread: 0, Op: trace.Store})
		tr = append(tr, trace.Access{PC: 0x604, Addr: 0x4000, Value: value.FromInt(1), Gap: 10, Thread: 1, Op: trace.Load})
	}
	r := runStream(t, DefaultConfig(), tr)
	if r.Invalidations == 0 {
		t.Fatal("write sharing must invalidate")
	}
	if r.Flushes == 0 {
		t.Fatal("remote dirty reads must flush the owner")
	}
}

func TestMultiThreadMakespan(t *testing.T) {
	// Thread 1 has far more work; the makespan must reflect it.
	var tr []trace.Access
	tr = append(tr, trace.Access{PC: 0x700, Addr: 0x8000, Value: value.FromInt(1), Gap: 5, Thread: 0, Op: trace.Load})
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Access{PC: 0x704, Addr: uint64(0x9000 + i*64), Value: value.FromInt(1), Gap: 1000, Thread: 1, Op: trace.Load})
	}
	r := runStream(t, DefaultConfig(), tr)
	// Thread 1 alone: >= 50 * 1000/4 cycles of compute.
	if r.Cycles < 12000 {
		t.Fatalf("makespan %d too small for thread 1's work", r.Cycles)
	}
	if r.Instructions != 1+5+50*1001 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
}

func TestMSHRBoundsOutstanding(t *testing.T) {
	// With 1 MSHR every fetch serializes; with 8 they overlap. Runtime
	// must reflect that.
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + i*64)
	}
	one := DefaultConfig()
	one.MSHRs = 1
	eight := DefaultConfig()
	eight.MSHRs = 8
	r1 := runStream(t, one, mkTrace(addrs, 0, false))
	r8 := runStream(t, eight, mkTrace(addrs, 0, false))
	if r1.Cycles <= r8.Cycles {
		t.Fatalf("1 MSHR must be slower than 8: %d vs %d", r1.Cycles, r8.Cycles)
	}
}

func TestL2AndDRAMAccounting(t *testing.T) {
	addrs := []uint64{0x10000, 0x20000, 0x30000}
	r := runStream(t, DefaultConfig(), mkTrace(addrs, 0, false))
	if r.L2Accesses < 3 {
		t.Fatalf("every fetch visits the L2: %d", r.L2Accesses)
	}
	if r.DRAMAccesses < 3 {
		t.Fatalf("cold L2 misses must go to DRAM: %d", r.DRAMAccesses)
	}
	if r.Energy.DRAMAccesses != r.DRAMAccesses {
		t.Fatal("energy tally must match the DRAM count")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Cycles: 100, Instructions: 400, L1LoadMisses: 10,
		StallCycles: 50, MissServiceTotal: 900, ServicedMisses: 9}
	if r.IPC() != 4 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.AvgServiceLatency() != 100 {
		t.Fatalf("service latency = %v", r.AvgServiceLatency())
	}
	if r.AvgExposedMissLatency() != 5 {
		t.Fatalf("exposed latency = %v", r.AvgExposedMissLatency())
	}
	zero := Result{}
	if zero.IPC() != 0 || zero.AvgServiceLatency() != 0 || zero.AvgExposedMissLatency() != 0 {
		t.Fatal("zero-result conventions")
	}
}

func TestPerCoreStats(t *testing.T) {
	var tr []trace.Access
	for i := 0; i < 40; i++ {
		tr = append(tr, trace.Access{
			PC: 0x700, Addr: uint64(0x9000 + i*64), Value: value.FromInt(1),
			Gap: 100, Thread: uint8(i % 2), Op: trace.Load,
		})
	}
	r := runStream(t, DefaultConfig(), tr)
	if len(r.PerCore) != 4 {
		t.Fatalf("per-core stats = %d entries", len(r.PerCore))
	}
	var insts uint64
	for _, c := range r.PerCore {
		insts += c.Instructions
		if c.Cycles > r.Cycles {
			t.Fatal("no core can outlast the makespan")
		}
	}
	if insts != r.Instructions {
		t.Fatalf("per-core instructions %d != total %d", insts, r.Instructions)
	}
	if r.PerCore[0].Accesses != 20 || r.PerCore[1].Accesses != 20 {
		t.Fatalf("access split: %+v", r.PerCore)
	}
	if r.PerCore[0].IPC() <= 0 {
		t.Fatal("busy core must have positive IPC")
	}
	if (CoreStat{}).IPC() != 0 {
		t.Fatal("idle core IPC must be 0")
	}
}

func TestValueDelayRealistic(t *testing.T) {
	// Phase-2 approximators use a small value delay; the pipeline must
	// train through it without leaking pending state.
	addrs := make([]uint64, 50)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + i*64)
	}
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(0)
	r := runStream(t, cfg, mkTrace(addrs, 2, true))
	if r.Covered == 0 {
		t.Fatal("training must eventually enable coverage")
	}
}
