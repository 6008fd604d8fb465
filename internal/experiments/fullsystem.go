package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"lva/internal/fullsys"
	"lva/internal/obs/prov"
	"lva/internal/workloads"
)

// fullsysDegrees are the approximation degrees swept in Figures 10 and 11.
var fullsysDegrees = []int{0, 2, 4, 8, 16}

// fullsysRun is one workload's Figure 10/11 sweep: the precise run and
// the LVA run at each of fullsysDegrees.
type fullsysRun struct {
	precise fullsys.Result
	byDeg   map[int]fullsys.Result
}

// sweepConfigs are the configurations of w's Figure 10/11 sweep: precise,
// then LVA at each of fullsysDegrees.
func sweepConfigs(w workloads.Workload) []fullsys.Config {
	cfg := fullsys.DefaultConfig()
	cfgs := []fullsys.Config{cfg}
	for _, d := range fullsysDegrees {
		acfg := BaselineFor(w)
		acfg.Degree = d
		// Full-system value delay is realistic (~1 load on average,
		// §VI-E) rather than the conservative 4 of the design-space
		// phase.
		acfg.ValueDelay = 1
		c := cfg
		c.Approx = &acfg
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// newSweep files the results of sweepConfigs.
func newSweep(rs []fullsys.Result) *fullsysRun {
	run := &fullsysRun{precise: rs[0], byDeg: make(map[int]fullsys.Result)}
	for i, d := range fullsysDegrees {
		run.byDeg[d] = rs[1+i]
	}
	return run
}

// streamSlots bounds the captured streams alive at once to one per gate
// slot plus one capturing ahead, since a captured stream is large (32 B per
// access). It is sized from Parallelism's start-up value.
var streamSlots = make(chan struct{}, max(1, Parallelism)+1)

// claimMu makes fullsysResults' claim on its points atomic, so concurrent
// calls over the same points (Figures 10 and 11 under RunAll) find them all
// claimed or none, and only one of them captures the stream.
var claimMu sync.Mutex

// fullsysResults returns the phase-2 results of w under each of cfgs,
// memoized per phase-2 design point (Figures 10 and 11 and the extensions
// share points). It claims every point no other call has claimed, captures
// w's precise stream once for them in a gate task of its own, then runs
// each claimed point as its own gate task on the captured stream, which it
// drops once they finish. cfgs must share one core count. A memo hit emits
// no provenance record. fullsysResults must not be called from a gate task.
func fullsysResults(w workloads.Workload, cfgs []fullsys.Config) []fullsys.Result {
	cells := make([]*memoCell, len(cfgs))
	var claimed []int
	claimMu.Lock()
	for i, cfg := range cfgs {
		c, owner := memoClaim(memoFullsys, fullsysPoint(w, cfg, DefaultSeed))
		cells[i] = c
		if owner {
			claimed = append(claimed, i)
		}
	}
	claimMu.Unlock()

	if len(claimed) > 0 {
		streamSlots <- struct{}{}
		st := capturePrecise(w, cfgs[claimed[0]].Cores)
		var wg sync.WaitGroup
		for _, i := range claimed {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runFullsys(w, cfgs[i], st, cells[i])
			}(i)
		}
		wg.Wait()
		<-streamSlots
	}
	out := make([]fullsys.Result, len(cfgs))
	for i, c := range cells {
		out[i] = c.wait().(fullsys.Result)
	}
	return out
}

// capturePrecise executes w's precise kernel with a phase-2 capture
// attached, as a gate task of its own, and returns the stream filed for
// cores. The execution is the run cache's precise cell, so it doubles as
// RunPrecise(w) and counts as that point's one simulation. When another
// call filled the cell first (an error figure, or a trace-store
// recording), the capture takes a second kernel execution, counted as a
// recapture (TraceStats.Recaptures).
func capturePrecise(w workloads.Workload, cores int) *fullsys.Stream {
	var st *fullsys.Stream
	gated("capture/"+w.Name(), func() {
		dp := precisePoint(w, DefaultSeed)
		c := fullsys.NewCapture(cores)
		captured := false
		cachedRun(dp, func() RunResult {
			captured = true
			return runWith(dp, c)
		})
		if !captured {
			runWith(dp, c)
			traceStats.recaptures.Add(1)
		}
		st = c.Stream()
	})
	return st
}

// runFullsys runs one claimed phase-2 point on st as a gate task and sets
// its memo cell.
func runFullsys(w workloads.Workload, cfg fullsys.Config, st *fullsys.Stream, cell *memoCell) {
	label := "precise"
	if cfg.Approx != nil {
		label = "lva-d" + strconv.Itoa(cfg.Approx.Degree)
	}
	gated("fullsys/"+w.Name()+"/"+label, func() {
		pc := provBegin()
		r, err := fullsys.New(cfg).Run(st)
		if err != nil {
			panic(fmt.Sprintf("experiments: phase-2 run of %s/%s: %v", w.Name(), label, err))
		}
		cell.set(r)
		if !pc.on() {
			return
		}
		name := w.Name() + "/" + label
		pc.point("fullsys", name, "fullsys", prov.RouteExec, prov.CounterNone, provWhyCapture,
			fullsysPoint(w, cfg, DefaultSeed), nil, provStagesRunExec)
		pc.stage("fullsys "+name, "", "",
			map[string]any{"route": string(prov.RouteExec), "workload": w.Name()})
	})
}

// fullsysAll is fullsysResults for every workload at once, in registry
// order, with cfgsFor(w) naming each workload's configurations.
func fullsysAll(cfgsFor func(w workloads.Workload) []fullsys.Config) [][]fullsys.Result {
	out := make([][]fullsys.Result, len(workloads.Names()))
	var wg sync.WaitGroup
	for i, w := range workloads.All() {
		wg.Add(1)
		go func(i int, w workloads.Workload) {
			defer wg.Done()
			out[i] = fullsysResults(w, cfgsFor(w))
		}(i, w)
	}
	wg.Wait()
	return out
}

// RunFullSystem runs w precisely under the phase-1 simulator, capturing its
// 4-thread access stream in memory, and runs that stream in the phase-2
// model under cfg — the paper's two-phase methodology (approximation is
// applied during replay, where the paper notes instruction streams vary
// by at most ~2.4%). It memoizes nothing: every call executes the kernel
// once. An invalid cfg is reported before the kernel runs.
func RunFullSystem(w workloads.Workload, seed uint64, cfg fullsys.Config) (fullsys.Result, error) {
	if err := cfg.Validate(); err != nil {
		return fullsys.Result{}, err
	}
	c := fullsys.NewCapture(cfg.Cores)
	runWith(precisePoint(w, seed), c)
	return fullsys.New(cfg).Run(c.Stream())
}

// Fig10 reproduces Figure 10: full-system speedup (a) and dynamic energy
// savings in the memory hierarchy (b) for approximation degrees 0..16.
// Expected shape: ~8.5% mean speedup with bodytrack and canneal best;
// energy savings grow with degree (mean ~12.6% at degree 16).
func Fig10() *Figure {
	f := &Figure{
		ID:         "fig10",
		Title:      "Full-system speedup and energy savings vs. approximation degree",
		ValueUnit:  "speedup fraction / energy-savings fraction",
		Benchmarks: workloads.Names(),
	}
	sweeps := sweepAll()
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("speedup approx-%d", d)}
		for _, r := range sweeps {
			lva := r.byDeg[d]
			row.Values = append(row.Values,
				float64(r.precise.Cycles)/float64(lva.Cycles)-1)
		}
		f.Rows = append(f.Rows, row)
	}
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("energy savings approx-%d", d)}
		for _, r := range sweeps {
			lva := r.byDeg[d]
			row.Values = append(row.Values,
				1-lva.Energy.TotalPJ()/r.precise.Energy.TotalPJ())
		}
		f.Rows = append(f.Rows, row)
	}

	// The paper's accompanying §VI-E statistics.
	var latRed0, latRed16, trafRed16 float64
	n := 0.0
	for _, r := range sweeps {
		pl := r.precise.AvgExposedMissLatency()
		if pl > 0 {
			latRed0 += 1 - r.byDeg[0].AvgExposedMissLatency()/pl
			latRed16 += 1 - r.byDeg[16].AvgExposedMissLatency()/pl
		}
		if r.precise.FlitHops > 0 {
			trafRed16 += 1 - float64(r.byDeg[16].FlitHops)/float64(r.precise.FlitHops)
		}
		n++
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("mean exposed L1-miss-latency reduction: %.1f%% (degree 0), %.1f%% (degree 16); paper: 41.0%% and 47.2%%", latRed0/n*100, latRed16/n*100),
		fmt.Sprintf("mean interconnect traffic reduction at degree 16: %.1f%%; paper: 37.2%%", trafRed16/n*100),
		"paper: 8.5% mean speedup (up to 28.6%); 12.6% mean energy savings at degree 16 (up to 44.1%)")
	return f
}

// Fig11 reproduces Figure 11: the L1-miss energy-delay product, normalized
// to precise execution, for approximation degrees 0..16. Expected shape:
// EDP falls as degree rises (paper: -41.9%, -53.8%, -63.8% mean at degrees
// 0, 4, 16).
func Fig11() *Figure {
	f := &Figure{
		ID:         "fig11",
		Title:      "L1-miss energy-delay product vs. approximation degree",
		ValueUnit:  "normalized EDP (lower is better)",
		Benchmarks: workloads.Names(),
	}
	base := Row{Label: "baseline"}
	for range workloads.All() {
		base.Values = append(base.Values, 1)
	}
	f.Rows = append(f.Rows, base)
	sweeps := sweepAll()
	for _, d := range fullsysDegrees {
		row := Row{Label: fmt.Sprintf("approx-%d", d)}
		for _, r := range sweeps {
			p := r.precise.MissEDP()
			if p == 0 {
				row.Values = append(row.Values, 1)
				continue
			}
			row.Values = append(row.Values, r.byDeg[d].MissEDP()/p)
		}
		f.Rows = append(f.Rows, row)
	}
	f.Notes = append(f.Notes, "paper: mean L1-miss EDP reductions of 41.9%, 53.8% and 63.8% at degrees 0, 4 and 16")
	return f
}

// sweepAll runs the full-system sweeps of every workload and returns them
// in registry order.
func sweepAll() []*fullsysRun {
	rs := fullsysAll(sweepConfigs)
	out := make([]*fullsysRun, len(rs))
	for i, r := range rs {
		out[i] = newSweep(r)
	}
	return out
}

// FullSystemResult returns w's memoized Figure 10/11 phase-2 results: the
// precise run and the LVA run at degree, for tests and the benchmark's
// exact counts to inspect raw cycle, traffic and energy numbers.
func FullSystemResult(w workloads.Workload, degree int) (precise, lva fullsys.Result) {
	r := newSweep(fullsysResults(w, sweepConfigs(w)))
	return r.precise, r.byDeg[degree]
}
