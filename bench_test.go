// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI). Each BenchmarkTableN/BenchmarkFigN runs the corresponding
// experiment driver — the same code behind `lvaexp <id>` — and reports the
// headline number of that artifact as a custom metric so `go test -bench`
// output doubles as a results summary. Run with -v to print the full
// rows/series the paper plots.
//
//	go test -bench=. -benchmem
//
// Micro-benchmarks for the core structures (approximator, cache, NoC,
// prefetcher) follow at the bottom.
package lva_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"lva"
	"lva/internal/coherence"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/noc"
	"lva/internal/stats"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// runFigure drives one experiment per iteration; the figure's table is
// printed once under -v so the bench regenerates the paper's rows.
func runFigure(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, ok := lva.RunExperiment(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		fig = f
	}
	if testing.Verbose() {
		fmt.Println(fig.String())
	}
	return fig
}

// rowMean returns the mean of a series, failing the bench if it is absent.
func rowMean(b *testing.B, f *experiments.Figure, label string) float64 {
	b.Helper()
	r, ok := f.Row(label)
	if !ok {
		b.Fatalf("%s: missing series %q", f.ID, label)
	}
	return r.Mean()
}

// BenchmarkTable1 measures the warm-store process-cold path of the
// record-once trace pipeline: every iteration drops the in-memory caches
// (ResetRunCache) but keeps the on-disk grid recordings, so regenerating
// Table 1 costs 14 footer reads and zero simulation — the cost a fresh
// process pointed at LVA_TRACE_DIR pays.
func BenchmarkTable1(b *testing.B) {
	// Deferred last→first: drop this bench's private state, then leave the
	// shared caches warm for the benchmarks that follow — exactly the state
	// a plain Table 1 regeneration leaves behind.
	defer lva.RunExperiment("table1")
	experiments.SetTraceDir(b.TempDir())
	defer experiments.SetTraceDir("")
	lva.ResetRunCache()
	defer lva.ResetRunCache()
	if _, ok := lva.RunExperiment("table1"); !ok { // record the 14 streams
		b.Fatal("unknown experiment table1")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		lva.ResetRunCache()
		f, _ := lva.RunExperiment("table1")
		fig = f
	}
	b.StopTimer()
	if testing.Verbose() {
		fmt.Println(fig.String())
	}
	b.ReportMetric(rowMean(b, fig, "precise L1 MPKI"), "meanMPKI")
	b.ReportMetric(rowMean(b, fig, "inst count variation %"), "meanInstVar%")
}

func BenchmarkFig1(b *testing.B) {
	f := runFigure(b, "fig1")
	b.ReportMetric(rowMean(b, f, "output error")*100, "bodytrackErr%")
}

func BenchmarkFig4(b *testing.B) {
	f := runFigure(b, "fig4")
	b.ReportMetric(rowMean(b, f, "LVA-GHB-0"), "lvaGHB0normMPKI")
	b.ReportMetric(rowMean(b, f, "LVP-GHB-0"), "lvpGHB0normMPKI")
}

func BenchmarkFig5(b *testing.B) {
	f := runFigure(b, "fig5")
	b.ReportMetric(rowMean(b, f, "GHB-0")*100, "meanErr%GHB0")
}

func BenchmarkFig6(b *testing.B) {
	f := runFigure(b, "fig6")
	b.ReportMetric(rowMean(b, f, "MPKI 10%"), "normMPKI@10%")
	b.ReportMetric(rowMean(b, f, "error infinite")*100, "err%@inf")
}

func BenchmarkFig7(b *testing.B) {
	f := runFigure(b, "fig7")
	b.ReportMetric(rowMean(b, f, "MPKI delay-4"), "normMPKI@d4")
	b.ReportMetric(rowMean(b, f, "MPKI delay-32"), "normMPKI@d32")
}

func BenchmarkFig8(b *testing.B) {
	f := runFigure(b, "fig8")
	b.ReportMetric(rowMean(b, f, "fetches prefetch-16"), "prefetch16fetches")
	b.ReportMetric(rowMean(b, f, "fetches approx-16"), "approx16fetches")
}

func BenchmarkFig9(b *testing.B) {
	f := runFigure(b, "fig9")
	b.ReportMetric(rowMean(b, f, "approx-0")*100, "err%@deg0")
	b.ReportMetric(rowMean(b, f, "approx-16")*100, "err%@deg16")
}

func BenchmarkFig10(b *testing.B) {
	f := runFigure(b, "fig10")
	b.ReportMetric(rowMean(b, f, "speedup approx-0")*100, "speedup%@deg0")
	b.ReportMetric(rowMean(b, f, "energy savings approx-16")*100, "energySave%@deg16")
}

func BenchmarkFig11(b *testing.B) {
	f := runFigure(b, "fig11")
	b.ReportMetric(rowMean(b, f, "approx-0"), "normEDP@deg0")
	b.ReportMetric(rowMean(b, f, "approx-16"), "normEDP@deg16")
}

func BenchmarkFig12(b *testing.B) {
	f := runFigure(b, "fig12")
	row, _ := f.Row("static approx load PCs")
	b.ReportMetric(stats.Max(row.Values), "maxStaticPCs")
}

func BenchmarkFig13(b *testing.B) {
	f := runFigure(b, "fig13")
	b.ReportMetric(rowMean(b, f, "loss-0 bits"), "normMPKI@loss0")
	b.ReportMetric(rowMean(b, f, "loss-23 bits"), "normMPKI@loss23")
}

// ---------------------------------------------------------------------------
// End-to-end benchmarks: regenerating the whole registry through the run
// cache, cold (every design point simulated once) and warm (every point a
// cache hit).

func BenchmarkRunAllCold(b *testing.B) {
	var dedup float64
	for i := 0; i < b.N; i++ {
		lva.ResetRunCache()
		if _, err := lva.RunAll(); err != nil {
			b.Fatal(err)
		}
		dedup = lva.RunCacheCounters().DedupFraction()
	}
	b.ReportMetric(dedup*100, "dedup%")
}

func BenchmarkRunAllWarm(b *testing.B) {
	lva.ResetRunCache()
	if _, err := lva.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lva.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

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

// Obs twins of the hot-path micro-benchmarks: same loop bodies with the
// metrics registry enabled at construction. ci.sh's overhead check
// compares each pair's disabled run against the seed and bounds the
// enabled-path cost; the disabled originals above must stay within noise
// of their pre-obs numbers because their fast paths carry no
// instrumentation at all (nil seam pointer).

func BenchmarkApproximatorOnMissObs(b *testing.B) {
	lva.SetMetricsEnabled(true)
	defer lva.SetMetricsEnabled(false)
	cfg := lva.DefaultApproximatorConfig()
	cfg.ValueDelay = 0
	a := lva.NewApproximator(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnMiss(uint64(0x400+i%32*4), lva.FloatValue(float64(i%100)))
	}
}

func BenchmarkSimulatorLoadHitObs(b *testing.B) {
	lva.SetMetricsEnabled(true)
	defer lva.SetMetricsEnabled(false)
	sim := lva.NewSimulator(lva.DefaultSimConfig())
	sim.LoadFloat(0x400, 0x1000, 1, false) // warm the block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.LoadFloat(0x400, 0x1000, 1, false)
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
		sim.SetGridCapture(gw)
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
	sim.SetGridCapture(gw)
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

func BenchmarkFullSystemReplay(b *testing.B) {
	sw := lva.NewSwaptions()
	sw.NSwaptions, sw.Paths = 4, 50
	tr := lva.CaptureTrace(sw, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lva.NewSystem(lva.DefaultSystemConfig()).Run(tr)
	}
}

// ---------------------------------------------------------------------------
// Phase-2 benchmarks: the full-system model's per-access layers. NoCSend
// and DirectoryStore allocate nothing, so benchdiff fails them as soon as
// they allocate. FullSystemStream allocates the simulator and its queue
// blocks; the block count follows the buffered window (about 40% of
// bodytrack's stream), not the number of accesses simulated.

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
