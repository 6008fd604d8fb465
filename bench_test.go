// Micro-benchmarks for the hot-path layers: the approximator, memsim's
// load paths, the batched workload accessors, the two halves of the
// grid-trace pipeline, and phase 2's NoC, directory and full-system
// stream. They are developer tools for measuring one layer while you work:
//
//	go test -run '^$' -bench . -benchmem .
//
// The repository benchmark is lvabench (bash lvabench/run.sh --workload W),
// which regenerates groups of the paper's figures from explicit start
// states.
package lva_test

import (
	"bytes"
	"io"
	"testing"

	"lva"
	"lva/internal/coherence"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/noc"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// BenchmarkRunCacheHit measures the memo-store fast path: one already-
// simulated design point served from the cache.
func BenchmarkRunCacheHit(b *testing.B) {
	w := lva.NewSwaptions()
	cfg := experiments.BaselineFor(w)
	experiments.RunLVA(w, cfg, experiments.DefaultSeed) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunLVA(w, cfg, experiments.DefaultSeed)
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: throughput of the core hardware-model structures.

func BenchmarkApproximatorOnMiss(b *testing.B) {
	cfg := lva.DefaultApproximatorConfig()
	cfg.ValueDelay = 0
	a := lva.NewApproximator(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnMiss(uint64(0x400+i%32*4), lva.FloatValue(float64(i%100)))
	}
}

func BenchmarkApproximatorWithGHB(b *testing.B) {
	cfg := lva.DefaultApproximatorConfig()
	cfg.ValueDelay = 0
	cfg.GHBSize = 4
	a := lva.NewApproximator(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnMiss(uint64(0x400+i%32*4), lva.FloatValue(float64(i%100)))
	}
}

func BenchmarkSimulatorLoadHit(b *testing.B) {
	sim := lva.NewSimulator(lva.DefaultSimConfig())
	sim.LoadFloat(0x400, 0x1000, 1, false) // warm the block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.LoadFloat(0x400, 0x1000, 1, false)
	}
}

func BenchmarkSimulatorLoadMissCovered(b *testing.B) {
	cfg := lva.DefaultSimConfig()
	cfg.Approx.ValueDelay = 0
	sim := lva.NewSimulator(cfg)
	for i := 0; i < 8; i++ {
		sim.LoadInt(0x400, uint64(0x100000+i*64), 10, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh block every time: always a miss, always covered.
		sim.LoadInt(0x400, uint64(0x200000+i*64), 10, true)
	}
}

// Batched-accessor micro-benchmarks: per-element cost of the range/row
// helpers the streaming kernels (blackscholes, fluidanimate, x264) use on
// their hot arrays. Steady state is all-hits over a resident window, the
// shape the batching was built for; b.N counts elements, not calls.

func BenchmarkF64LoadRange(b *testing.B) {
	sim := memsim.New(memsim.DefaultConfig())
	arena := workloads.NewArena()
	arr := workloads.NewF64Array(arena, 512)
	dst := make([]float64, 64)
	arr.LoadRange(sim, 0x400, 0, 64, true, dst) // warm the window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		arr.LoadRange(sim, 0x400, 0, 64, true, dst)
	}
}

func BenchmarkI32LoadRow(b *testing.B) {
	sim := memsim.New(memsim.DefaultConfig())
	arena := workloads.NewArena()
	pix := workloads.NewI32Array(arena, 1024)
	pcs := []uint64{0x400, 0x404, 0x408, 0x40c}
	dst := make([]int32, 64)
	pix.LoadRow(sim, pcs, 0, 64, true, dst) // warm the row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		pix.LoadRow(sim, pcs, 0, 64, true, dst)
	}
}

// ---------------------------------------------------------------------------
// Grid-trace benchmarks: the two halves of the record-once/replay-many
// pipeline, isolated. Record pays one instrumented kernel execution plus
// the streaming encode; replay pays one decode pass plus per-access
// simulator dispatch and no kernel arithmetic.

func BenchmarkGridRecord(b *testing.B) {
	w := workloads.NewBlackscholes()
	cfg := memsim.DefaultConfig()
	cfg.Attach = memsim.AttachNone
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gw := trace.NewGridWriter(io.Discard, w.Name(), "bench", experiments.DefaultSeed)
		sim := memsim.New(cfg)
		sim.SetCapture(gw)
		w.Run(sim, experiments.DefaultSeed)
		if _, err := gw.Finish(sim.Result().Instructions, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// recordGrid records w's annotated access stream at the default seed into
// an in-memory grid trace.
func recordGrid(b *testing.B, w workloads.Workload) ([]byte, trace.GridHeader) {
	b.Helper()
	cfg := memsim.DefaultConfig()
	cfg.Attach = memsim.AttachNone
	var buf bytes.Buffer
	gw := trace.NewGridWriter(&buf, w.Name(), "bench", experiments.DefaultSeed)
	sim := memsim.New(cfg)
	sim.SetCapture(gw)
	w.Run(sim, experiments.DefaultSeed)
	hdr, err := gw.Finish(sim.Result().Instructions, nil)
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), hdr
}

func BenchmarkGridReplay(b *testing.B) {
	enc, hdr := recordGrid(b, workloads.NewBlackscholes())
	lvp := memsim.DefaultConfig()
	lvp.Attach = memsim.AttachLVP
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr, err := trace.NewGridReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		if err := memsim.Replay(gr, hdr.Instructions, []*memsim.Sim{memsim.New(lvp)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Phase-2 benchmarks: the full-system model's per-access layers. NoCSend
// and DirectoryStore allocate nothing; TestSendAllocatesNothing (noc) and
// TestOpsAllocateNothing (coherence) fail as soon as they allocate.
// FullSystemStream allocates the simulator and the decoded recording:
// RunStream decodes the whole stream (one block per 4096 accesses of each
// core) before running it, so its block count follows the stream's length.

// BenchmarkNoCSend measures one control packet on the 2x2 mesh, cycling
// through every source/destination pair.
func BenchmarkNoCSend(b *testing.B) {
	m := noc.New(noc.DefaultConfig())
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = m.SendCtrl(i&3, (i>>2)&3, now)
	}
}

// BenchmarkDirectoryStore measures one MSI store over a 4093-block working
// set, with ownership moving between the four nodes. The set is tracked
// before timing starts, so the directory never grows inside the loop.
func BenchmarkDirectoryStore(b *testing.B) {
	d := coherence.NewDirectory(4)
	for i := 0; i < 4093; i++ {
		d.Store(uint64(i)*64, i&3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(uint64(i%4093)*64, i&3)
	}
}

// BenchmarkFullSystemStream streams an in-memory grid recording of
// bodytrack, whose accesses miss the L1 often, through the precise
// full-system model.
func BenchmarkFullSystemStream(b *testing.B) {
	enc, hdr := recordGrid(b, workloads.NewBodytrack())
	var r fullsys.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr, err := trace.NewGridReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		if r, err = fullsys.New(fullsys.DefaultConfig()).RunStream(hdr.Threads, gr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.L1LoadMisses), "l1-load-misses")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(hdr.Accesses), "ns/access")
}
