package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"lva/internal/fullsys"
	"lva/internal/obs/prov"
	"lva/internal/trace"
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

// streamSlots bounds the decoded recordings alive at once to one per gate
// slot plus one decoding ahead, since a decoded recording is large (40 B
// per access). It is sized from Parallelism's start-up value.
var streamSlots = make(chan struct{}, max(1, Parallelism)+1)

// claimMu makes fullsysResults' claim on its points atomic, so concurrent
// calls over the same points (Figures 10 and 11 under RunAll) find them all
// claimed or none, and only one of them decodes the recording.
var claimMu sync.Mutex

// fullsysResults returns the phase-2 results of w under each of cfgs,
// memoized per phase-2 design point (Figures 10 and 11 and the extensions
// share points). It claims every point no other call has claimed, decodes
// w's precise recording once for them in a gate task of its own, then runs
// each claimed point as its own gate task on the decoded stream, which it
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
		st, gs := decodePrecise(w, cfgs[claimed[0]].Cores)
		var wg sync.WaitGroup
		for _, i := range claimed {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runFullsys(w, cfgs[i], st, gs, cells[i])
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

// decodePrecise decodes w's precise recording for cores as a gate task of
// its own. It reads the recording from the trace store, which gs names;
// with no readable recording (no writable trace directory, or a chunk that
// fails to decode) it records the stream again in memory and gs is nil. It
// panics only if that fails too, which only a bug can cause.
func decodePrecise(w workloads.Workload, cores int) (st *fullsys.Stream, gs *gridStream) {
	gated("decode/"+w.Name(), func() {
		if g := ensureStream(precisePoint(w, DefaultSeed)); g.path != "" {
			if s, err := decodeFile(g, cores); err == nil {
				st, gs = s, g
				return
			}
		}
		gr, hdr, err := recordInMemory(w, DefaultSeed)
		if err == nil {
			st, err = fullsys.Decode(cores, hdr.Threads, gr)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: in-memory phase-2 recording of %s: %v", w.Name(), err))
		}
	})
	return st, gs
}

// runFullsys runs one claimed phase-2 point on st, decoded from gs (nil
// for an in-memory re-recording), as a gate task and sets its memo cell.
func runFullsys(w workloads.Workload, cfg fullsys.Config, st *fullsys.Stream, gs *gridStream, cell *memoCell) {
	label := "precise"
	if cfg.Approx != nil {
		label = "lva-d" + strconv.Itoa(cfg.Approx.Degree)
	}
	gatedQ("fullsys/"+w.Name()+"/"+label, func(queued time.Duration) {
		pc := provBegin(queued)
		r, err := fullsys.New(cfg).Run(st)
		if err != nil {
			panic(fmt.Sprintf("experiments: phase-2 run of %s/%s: %v", w.Name(), label, err))
		}
		cell.set(r)
		if !pc.on() {
			return
		}
		route, why, stages, flow := prov.RouteReplay, provWhyStream, provStagesStream, ""
		if gs == nil {
			route, why, stages = prov.RouteExec, provWhyMemRecord, provStagesRunExec
		} else {
			flow = gs.hdr.Key
		}
		name := w.Name() + "/" + label
		pc.point("fullsys", name, "fullsys", route, prov.CounterNone, why,
			fullsysPoint(w, cfg, DefaultSeed), gs, stages, "")
		pc.stage("fullsys "+name, "f", flow,
			map[string]any{"route": string(route), "workload": w.Name()})
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

// RunFullSystem runs w precisely under the phase-1 simulator, recording its
// 4-thread access stream into an in-memory grid trace, and replays that
// stream in the phase-2 model under cfg — the paper's two-phase methodology
// (approximation is applied during replay, where the paper notes
// instruction streams vary by at most ~2.4%). It memoizes nothing: every
// call executes the kernel once. An invalid cfg is reported before the
// kernel runs.
func RunFullSystem(w workloads.Workload, seed uint64, cfg fullsys.Config) (fullsys.Result, error) {
	if err := cfg.Validate(); err != nil {
		return fullsys.Result{}, err
	}
	gr, hdr, err := recordInMemory(w, seed)
	if err != nil {
		return fullsys.Result{}, err
	}
	return fullsys.New(cfg).RunStream(hdr.Threads, gr)
}

// recordInMemory executes w precisely with the grid capture attached and
// returns a reader over the in-memory recording.
func recordInMemory(w workloads.Workload, seed uint64) (*trace.GridReader, trace.GridHeader, error) {
	var buf bytes.Buffer
	_, hdr, err := writeStream(precisePoint(w, seed), &buf)
	if err != nil {
		return nil, hdr, err
	}
	gr, err := trace.NewGridReader(&buf)
	return gr, hdr, err
}

// decodeFile decodes the store recording gs for cores.
func decodeFile(gs *gridStream, cores int) (*fullsys.Stream, error) {
	f, err := os.Open(gs.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, err
	}
	return fullsys.Decode(cores, gs.hdr.Threads, gr)
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

// FullSystemResult exposes the memoized phase-2 replays for a workload so
// tools (cmd/lvaexp -v, tests) can inspect raw cycle/energy numbers.
func FullSystemResult(w workloads.Workload, degree int) (precise, lva fullsys.Result) {
	r := newSweep(fullsysResults(w, sweepConfigs(w)))
	return r.precise, r.byDeg[degree]
}
