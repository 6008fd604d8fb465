package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"lva/internal/experiments"
)

// endToEndMetrics are the untraced run's metrics, each the median over the
// run's iterations (setup_s over its set-ups).
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_m", "M", "lower"},
	{"setup_s", "s", "lower"},
}

// Set-up samples per untraced run; setup_s is their median. A set-up that
// records streams costs about a second, so fewer of those are taken.
const (
	cheapSetups     = 15
	prerecordSetups = 3
)

// cost is the host cost of one regeneration of a workload's figures.
type cost struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	AllocsM float64 `json:"allocs_m"`
	// ProbeMS is the host probe taken just before the iteration.
	ProbeMS float64 `json:"host_probe_ms"`
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample names the runtime/metrics counters the benchmark reads.
var runtimeSample = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// rt is one reading of runtimeSample.
type rt struct {
	bytes, objects, gcCycles uint64
	gcCPU                    float64
}

// newRuntimeSample returns a buffer for readSample.
func newRuntimeSample() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSample))
	for i, name := range runtimeSample {
		s[i].Name = name
	}
	return s
}

// readSample reads runtimeSample into s, which newRuntimeSample made, so
// that frequent readings allocate nothing.
func readSample(s []metrics.Sample) rt {
	metrics.Read(s)
	return rt{
		bytes:    s[0].Value.Uint64(),
		objects:  s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

func readRuntime() rt { return readSample(newRuntimeSample()) }

// measure runs fn once and returns its host cost.
func measure(fn func() error) (cost, error) {
	r0, c0, t0 := readRuntime(), cpuSeconds(), time.Now()
	err := fn()
	wall := time.Since(t0)
	c1, r1 := cpuSeconds(), readRuntime()
	return cost{
		Wall:    wall.Seconds(),
		CPU:     c1 - c0,
		AllocMB: float64(r1.bytes-r0.bytes) / 1e6,
		AllocsM: float64(r1.objects-r0.objects) / 1e6,
	}, err
}

// probeSink keeps the host probe's loop from being optimized away.
var probeSink uint64

// hostProbe times a fixed CPU-bound loop three times and returns the median
// in milliseconds. The work never changes, so the figure tracks host speed
// alone and makes drift between runs visible.
func hostProbe(seed uint64) float64 {
	times := make([]float64, 3)
	for i := range times {
		x := seed | 1
		t0 := time.Now()
		for n := 0; n < 1<<25; n++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		probeSink += x
	}
	return median(times)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timedSetup discards the previous store, collects the previous
// iteration's garbage and times one set-up.
func timedSetup(w workload, st *startState) (float64, error) {
	if err := st.discard(); err != nil {
		return 0, fmt.Errorf("removing the previous store: %w", err)
	}
	runtime.GC()
	t0 := time.Now()
	err := st.setup(w)
	return time.Since(t0).Seconds(), err
}

// regenerate runs the workload's figures from the current start state and
// checks them against the golden hashes. It returns the ids that failed.
func regenerate(w workload, golden map[string]string) ([]string, error) {
	figs, err := experiments.RunAll(w.figures...)
	if err != nil {
		return nil, err
	}
	return checkFigures(figs, w.figures, golden), nil
}

// restart returns to the workload's start state before a regeneration. A
// prerecord workload's regeneration only reads its store, so emptying the
// memos suffices; the others get a fresh start state, whose set-up time it
// returns.
func restart(w workload, st *startState) (float64, error) {
	if w.prerecord {
		experiments.ResetRunCache()
		return 0, nil
	}
	return timedSetup(w, st)
}

// timedRun is the untraced run: it times the set-ups, then repeats the
// regeneration from the start state while another iteration still fits in
// budget (at least once), and reports the median of each end-to-end
// metric. Set-ups of a prerecord workload are timed up front; the others
// time the set-up each iteration makes.
func timedRun(w workload, st *startState, golden map[string]string, budget time.Duration) (result, map[string]uint64, map[string]any, error) {
	var (
		setups     []float64
		iters      []float64
		samples    []cost
		counts     map[string]uint64
		iterDevs   []string
		mismatched []string
		res        = result{Metrics: map[string]metric{}}
	)
	timeSetup := func() error {
		s, err := timedSetup(w, st)
		setups = append(setups, s)
		return err
	}
	for w.prerecord && len(setups) < prerecordSetups {
		if err := timeSetup(); err != nil {
			return res, nil, nil, err
		}
	}
	start := time.Now()
	for len(samples) == 0 || time.Since(start)+time.Duration(median(iters)*float64(time.Second)) <= budget {
		t0 := time.Now()
		s, err := restart(w, st)
		if err != nil {
			return res, nil, nil, err
		}
		if !w.prerecord {
			setups = append(setups, s)
		}
		probe := hostProbe(uint64(len(samples)))
		runtime.GC()
		var bad []string
		c, err := measure(func() error {
			var err error
			bad, err = regenerate(w, golden)
			return err
		})
		if err != nil {
			return res, nil, nil, err
		}
		c.ProbeMS = probe
		samples = append(samples, c)
		res.Attempted += len(w.figures)
		res.Failed += len(bad)
		mismatched = append(mismatched, bad...)
		got := snapshotCounts(w)
		if counts == nil {
			counts = got
		} else {
			iterDevs = append(iterDevs, diffCounts(counts, got)...)
		}
		iters = append(iters, time.Since(t0).Seconds())
	}
	for !w.prerecord && len(setups) < cheapSetups {
		if err := timeSetup(); err != nil {
			return res, nil, nil, err
		}
	}
	for _, d := range iterDevs {
		fmt.Fprintln(os.Stderr, "lvabench: counts differ between iterations:", d)
	}
	pick := func(f func(cost) float64) float64 {
		xs := make([]float64, len(samples))
		for i, c := range samples {
			xs[i] = f(c)
		}
		return median(xs)
	}
	res.Correct = res.Failed == 0
	vals := map[string]float64{
		"wall_s":   pick(func(c cost) float64 { return c.Wall }),
		"cpu_s":    pick(func(c cost) float64 { return c.CPU }),
		"alloc_mb": pick(func(c cost) float64 { return c.AllocMB }),
		"allocs_m": pick(func(c cost) float64 { return c.AllocsM }),
		"setup_s":  median(setups),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	detail := map[string]any{
		"iterations":           samples,
		"setup_s":              setups,
		"golden_mismatches":    mismatched,
		"iteration_deviations": iterDevs,
	}
	return res, counts, detail, nil
}
