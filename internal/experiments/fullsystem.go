package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"

	"lva/internal/fullsys"
	"lva/internal/obs/prov"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// fullsysDegrees are the approximation degrees swept in Figures 10 and 11.
var fullsysDegrees = []int{0, 2, 4, 8, 16}

// fullsysRun is one phase-2 replay result.
type fullsysRun struct {
	precise fullsys.Result
	byDeg   map[int]fullsys.Result
}

// runFullsys returns the phase-2 result of w under cfg, memoized per
// phase-2 design point (Figures 10 and 11 and the extensions share
// points). A fresh point streams the recorded precise grid trace from
// disk chunk by chunk. With no readable recording (no writable trace
// directory, or a chunk that fails to decode) it falls back to
// RunFullSystem, which records the stream again in memory; it panics only
// if that fallback fails, which only a bug can cause. A memo hit emits no
// provenance record.
func runFullsys(w workloads.Workload, cfg fullsys.Config) fullsys.Result {
	dp := fullsysPoint(w, cfg, DefaultSeed)
	res, _ := memoOnce(memoFullsys, dp, func() fullsys.Result {
		pc := provBegin(0)
		label := "precise"
		if cfg.Approx != nil {
			label = "lva-d" + strconv.Itoa(cfg.Approx.Degree)
		}
		if st := ensureStream(precisePoint(w, dp.seed)); st.path != "" {
			if r, err := streamFullsys(cfg, st); err == nil {
				if pc.on() {
					pc.point("fullsys", w.Name()+"/"+label, "fullsys", prov.RouteReplay,
						prov.CounterNone, provWhyStream, dp, st, provStagesStream, "")
					pc.stage("fullsys "+w.Name()+"/"+label, "f", st.hdr.Key,
						map[string]any{"route": "replay", "workload": w.Name()})
				}
				return r
			}
		}
		r, err := RunFullSystem(w, dp.seed, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: in-memory phase-2 fallback for %s/%s: %v", w.Name(), label, err))
		}
		if pc.on() {
			pc.point("fullsys", w.Name()+"/"+label, "fullsys", prov.RouteExec,
				prov.CounterNone, provWhyMemRecord, dp, nil, provStagesRunExec, "")
			pc.stage("fullsys "+w.Name()+"/"+label, "", "",
				map[string]any{"route": "exec", "workload": w.Name()})
		}
		return r
	})
	return res
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
	var buf bytes.Buffer
	_, hdr, err := writeStream(precisePoint(w, seed), &buf)
	if err != nil {
		return fullsys.Result{}, err
	}
	gr, err := trace.NewGridReader(&buf)
	if err != nil {
		return fullsys.Result{}, err
	}
	return fullsys.New(cfg).RunStream(hdr.Threads, gr)
}

func streamFullsys(cfg fullsys.Config, st *gridStream) (fullsys.Result, error) {
	f, err := os.Open(st.path)
	if err != nil {
		return fullsys.Result{}, err
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return fullsys.Result{}, err
	}
	return fullsys.New(cfg).RunStream(st.hdr.Threads, gr)
}

// fullSystemSweep replays a workload's trace precisely and under LVA at
// every degree in fullsysDegrees. Each configuration is memoized by
// runFullsys, so Figures 10 and 11 share these runs. Distinct workloads
// sweep concurrently.
func fullSystemSweep(w workloads.Workload) *fullsysRun {
	run := &fullsysRun{byDeg: make(map[int]fullsys.Result)}
	cfg := fullsys.DefaultConfig()
	run.precise = runFullsys(w, cfg)

	for _, d := range fullsysDegrees {
		acfg := BaselineFor(w)
		acfg.Degree = d
		// Full-system value delay is realistic (~1 load on average,
		// §VI-E) rather than the conservative 4 of the design-space
		// phase.
		acfg.ValueDelay = 1
		c := cfg
		c.Approx = &acfg
		run.byDeg[d] = runFullsys(w, c)
	}
	return run
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

// sweepAll warms the full-system sweeps for every workload concurrently
// and returns them in registry order.
func sweepAll() []*fullsysRun {
	out := make([]*fullsysRun, len(workloads.Names()))
	forEachWorkload("fullsys-sweep", func(i int, w workloads.Workload) {
		out[i] = fullSystemSweep(w)
	})
	return out
}

// FullSystemResult exposes the memoized phase-2 replays for a workload so
// tools (cmd/lvaexp -v, tests) can inspect raw cycle/energy numbers.
func FullSystemResult(w workloads.Workload, degree int) (precise, lva fullsys.Result) {
	r := fullSystemSweep(w)
	return r.precise, r.byDeg[degree]
}
