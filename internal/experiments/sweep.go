package experiments

import (
	"fmt"
	"sync"

	"lva/internal/core"
	"lva/internal/obs"
	"lva/internal/obs/prov"
	"lva/internal/workloads"
)

// SweepSpec describes a cartesian design-space exploration over the
// approximator parameters (the paper's phase-1 methodology, §V-A). Every
// combination of the listed values runs once per benchmark. Empty lists
// default to the Table II baseline value.
type SweepSpec struct {
	// Benchmarks to sweep; empty means all seven.
	Benchmarks []string
	// GHBs are global-history-buffer sizes.
	GHBs []int
	// Windows are relaxed confidence windows (fractions; -1 = infinite).
	Windows []float64
	// Degrees are approximation degrees.
	Degrees []int
	// Delays are value delays (load instructions).
	Delays []int
	// MantissaLosses are FP precision reductions (bits).
	MantissaLosses []int
	// LHBs are local-history-buffer depths.
	LHBs []int
	// IntConfidence applies confidence to integer data too.
	IntConfidence bool
	// Proportional enables proportional confidence updates.
	Proportional bool
	// Seed is the workload input seed (0 means DefaultSeed).
	Seed uint64
}

// normalize fills defaults and returns the effective spec.
func (s SweepSpec) normalize() SweepSpec {
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = workloads.Names()
	}
	if len(s.GHBs) == 0 {
		s.GHBs = []int{0}
	}
	if len(s.Windows) == 0 {
		s.Windows = []float64{0.10}
	}
	if len(s.Degrees) == 0 {
		s.Degrees = []int{0}
	}
	if len(s.Delays) == 0 {
		s.Delays = []int{4}
	}
	if len(s.MantissaLosses) == 0 {
		s.MantissaLosses = []int{0}
	}
	if len(s.LHBs) == 0 {
		s.LHBs = []int{4}
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	return s
}

// Points returns how many simulations the spec implies (per benchmark
// combination count times benchmarks).
func (s SweepSpec) Points() int {
	n := s.normalize()
	return len(n.Benchmarks) * len(n.GHBs) * len(n.Windows) * len(n.Degrees) *
		len(n.Delays) * len(n.MantissaLosses) * len(n.LHBs)
}

// SweepPoint is one design point's results.
type SweepPoint struct {
	Benchmark    string
	GHB          int
	Window       float64
	Degree       int
	Delay        int
	MantissaLoss int
	LHB          int

	RawMPKI        float64
	EffectiveMPKI  float64
	NormalizedMPKI float64
	Coverage       float64
	Fetches        uint64
	NormFetches    float64
	OutputError    float64
}

// CSVHeader returns the column names matching SweepPoint.CSVRow.
func CSVHeader() []string {
	return []string{"benchmark", "ghb", "window", "degree", "delay", "mantissaLoss", "lhb",
		"rawMPKI", "effMPKI", "normMPKI", "coverage", "fetches", "normFetches", "outputError"}
}

// CSVRow renders the point as strings aligned with CSVHeader.
func (p SweepPoint) CSVRow() []string {
	return []string{
		p.Benchmark,
		fmt.Sprintf("%d", p.GHB),
		fmt.Sprintf("%g", p.Window),
		fmt.Sprintf("%d", p.Degree),
		fmt.Sprintf("%d", p.Delay),
		fmt.Sprintf("%d", p.MantissaLoss),
		fmt.Sprintf("%d", p.LHB),
		fmt.Sprintf("%.4f", p.RawMPKI),
		fmt.Sprintf("%.4f", p.EffectiveMPKI),
		fmt.Sprintf("%.4f", p.NormalizedMPKI),
		fmt.Sprintf("%.4f", p.Coverage),
		fmt.Sprintf("%d", p.Fetches),
		fmt.Sprintf("%.4f", p.NormFetches),
		fmt.Sprintf("%.4f", p.OutputError),
	}
}

// RunSweep executes the exploration and returns one point per combination,
// benchmark-major in the order given. Every configuration is validated
// before anything simulates; the precise baselines then warm up
// concurrently through the shared run cache, and the points themselves run
// on a Parallelism-bounded worker pool admitting through the same
// process-wide gate as the figure drivers; results and the optional
// progress callback are deterministic in count, and the returned slice
// order is always the full cartesian order regardless of completion order.
func RunSweep(spec SweepSpec, progress func(done, total int)) ([]SweepPoint, error) {
	n := spec.normalize()
	total := spec.Points()

	// Resolve every benchmark and validate every configuration first, so
	// bad names and parameters fail before any simulation.
	ws := make([]workloads.Workload, len(n.Benchmarks))
	for i, bench := range n.Benchmarks {
		w, err := workloads.ByName(bench)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}

	// Expand the cartesian product up front so workers fill a fixed slice.
	type job struct {
		idx   int
		bench string
		bi    int // index into ws and preciseRuns
		cfg   core.Config
		point SweepPoint
	}
	var jobs []job
	for bi, bench := range n.Benchmarks {
		for _, ghb := range n.GHBs {
			for _, win := range n.Windows {
				for _, deg := range n.Degrees {
					for _, delay := range n.Delays {
						for _, loss := range n.MantissaLosses {
							for _, lhb := range n.LHBs {
								cfg := core.DefaultConfig()
								cfg.GHBSize = ghb
								cfg.Window = win
								cfg.Degree = deg
								cfg.ValueDelay = delay
								cfg.MantissaLoss = loss
								cfg.LHBSize = lhb
								cfg.IntConfidence = n.IntConfidence
								cfg.ProportionalConfidence = n.Proportional
								if err := cfg.Validate(); err != nil {
									return nil, err
								}
								jobs = append(jobs, job{
									idx: len(jobs), bench: bench, bi: bi, cfg: cfg,
									point: SweepPoint{
										Benchmark: bench, GHB: ghb, Window: win,
										Degree: deg, Delay: delay,
										MantissaLoss: loss, LHB: lhb,
									},
								})
							}
						}
					}
				}
			}
		}
	}

	// Warm the precise baselines concurrently through the run cache.
	warm := newBatch("sweep")
	preciseRuns := make([]RunResult, len(ws))
	for i, w := range ws {
		i, w := i, w
		warm.add("warm-precise/"+w.Name(), func() { preciseRuns[i] = RunPrecise(w, n.Seed) })
	}
	warm.run()

	// A fixed worker pool (rather than one goroutine per point) keeps huge
	// sweeps cheap; every point still admits through the shared gate so
	// sweeps and figure drivers share one process-wide concurrency bound.
	out := make([]SweepPoint, len(jobs))
	feed := make(chan job)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	workers := max(1, Parallelism)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				var run RunResult
				pt := j.point
				precise := preciseRuns[j.bi]
				gated("sweep/"+j.bench, func() {
					pc := provBegin()
					dp := lvaPoint(ws[j.bi], j.cfg, n.Seed)
					run = simulate(dp)
					if pc.on() {
						pc.point("sweep", "lva/"+j.bench, "sweep", prov.RouteExec, prov.CounterNone,
							provWhySweepExec, dp, nil, provStagesSweepExec)
					}
				})
				sim := run.Sim
				pt.OutputError = ErrorVs(run, precise)
				pt.RawMPKI = sim.RawMPKI()
				pt.EffectiveMPKI = sim.EffectiveMPKI()
				pt.Coverage = sim.Coverage()
				pt.Fetches = sim.Fetches
				if p := precise.Sim.RawMPKI(); p > 0 {
					pt.NormalizedMPKI = pt.EffectiveMPKI / p
				}
				if p := float64(precise.Sim.Fetches); p > 0 {
					pt.NormFetches = float64(pt.Fetches) / p
				}
				out[j.idx] = pt
				eng().sweepPoints.Inc()
				mu.Lock()
				done++
				d := done
				if progress != nil {
					progress(d, total)
				}
				mu.Unlock()
				obs.Emit(obs.Event{Kind: obs.EventSweepPoint, Name: "lva", Done: d, Total: total})
			}
		}()
	}
	for _, j := range jobs {
		feed <- j
	}
	close(feed)
	wg.Wait()
	return out, nil
}
