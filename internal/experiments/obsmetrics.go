package experiments

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"lva/internal/memsim"
)

// engMetrics holds the experiment engine's metrics. They are always on:
// they fire once per kernel simulation or scheduler transition, so their
// cost is a handful of atomics against milliseconds of simulation, and
// keeping them live means RunCacheCounters and lvaexp -v work without any
// opt-in. Every count is an integer, so totals are independent of
// goroutine interleaving; only the two wall-clock histograms depend on
// timing, and deterministic snapshots leave them out (see Metrics).
type engMetrics struct {
	cacheHits    atomic.Uint64
	cacheSims    atomic.Uint64
	preciseHits  atomic.Uint64
	cacheLookups atomic.Uint64
	inflight     atomic.Int64
	queueWait    timeHist
	runWall      timeHist
	figuresDone  atomic.Uint64
	sweepPoints  atomic.Uint64

	// Phase-1 simulator events, summed over the Result of every executed
	// or replayed design point (see publish).
	loadMisses  atomic.Uint64
	covered     atomic.Uint64
	fetches     atomic.Uint64
	evictions   atomic.Uint64
	writebacks  atomic.Uint64
	trainings   atomic.Uint64
	confAccepts atomic.Uint64
	confRejects atomic.Uint64
}

// eng is the process-wide engine metrics table.
var eng engMetrics

// publish adds one phase-1 run's simulator events to the engine metrics.
// The engine calls it once per design point it executes (cachedRun) or
// replays (serveReplay); footer-served points, memo hits and stream
// recaptures simulate nothing new and publish nothing.
func (m *engMetrics) publish(r memsim.Result) {
	m.loadMisses.Add(r.LoadMisses)
	m.covered.Add(r.Covered)
	m.fetches.Add(r.Fetches)
	m.evictions.Add(r.Cache.Evictions)
	m.writebacks.Add(r.Cache.Writebacks)
	m.trainings.Add(r.Approx.Trainings)
	m.confAccepts.Add(r.Approx.ConfAccepts)
	m.confRejects.Add(r.Approx.ConfRejects)
}

// timeBuckets are the wall-clock histograms' bucket upper bounds in
// seconds: 0.5 ms to 60 s on a coarse log scale.
var timeBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// timeHist counts durations into timeBuckets. Bucket i counts values v
// with timeBuckets[i-1] < v <= timeBuckets[i] (the first counts v <=
// timeBuckets[0]); the last counts everything above the last bound,
// including +Inf and NaN.
type timeHist [len(timeBuckets) + 1]atomic.Uint64

// observe records one duration in seconds.
func (h *timeHist) observe(seconds float64) {
	// Smallest i with timeBuckets[i] >= seconds; NaN compares false
	// everywhere and lands in the overflow bucket.
	h[sort.SearchFloat64s(timeBuckets[:], seconds)].Add(1)
}

// Metric kinds, as snapshots report them.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// engTable lists every engine metric in name order, the order snapshots
// report them in. Exactly one of c, g and h is set; the histograms are
// the volatile metrics.
var engTable = []struct {
	name, help string
	c          *atomic.Uint64
	g          *atomic.Int64
	h          *timeHist
}{
	{name: "cache_evictions", help: "valid L1 blocks evicted, summed over phase-1 points", c: &eng.evictions},
	{name: "cache_writebacks", help: "dirty L1 evictions, summed over phase-1 points", c: &eng.writebacks},
	{name: "core_conf_accepts", help: "trainings whose approximation fell inside the confidence window, summed over phase-1 points", c: &eng.confAccepts},
	{name: "core_conf_rejects", help: "trainings whose approximation fell outside the confidence window, summed over phase-1 points", c: &eng.confRejects},
	{name: "core_trainings", help: "approximator training commits, summed over phase-1 points", c: &eng.trainings},
	{name: "figures_done", help: "experiment drivers completed", c: &eng.figuresDone},
	{name: "memsim_approximations", help: "L1 load misses covered by an approximation or prediction, summed over phase-1 points", c: &eng.covered},
	{name: "memsim_fetches", help: "blocks fetched into the L1 (demand + prefetch + store allocate), summed over phase-1 points", c: &eng.fetches},
	{name: "memsim_load_misses", help: "L1 load misses summed over executed and replayed phase-1 points", c: &eng.loadMisses},
	{name: "run_wall_seconds", help: "wall time of each executed kernel simulation", h: &eng.runWall},
	{name: "runcache_hits", help: "Run* calls satisfied from the memo store", c: &eng.cacheHits},
	{name: "runcache_lookups", help: "memo-layer lookups (cachedRun entries, hit or miss)", c: &eng.cacheLookups},
	{name: "runcache_precise_hits", help: "memo hits on precise baseline runs", c: &eng.preciseHits},
	{name: "runcache_simulated", help: "kernel simulations actually executed", c: &eng.cacheSims},
	{name: "sched_inflight", help: "simulations currently holding a gate slot", g: &eng.inflight},
	{name: "sched_queue_wait_seconds", help: "time simulations waited for a gate slot", h: &eng.queueWait},
	{name: "sweep_points_done", help: "sweep design points completed", c: &eng.sweepPoints},
}

// Metrics snapshots the engine metrics. includeVolatile also captures the
// wall-clock histograms, whose values change run to run; leave it false
// for byte-stable output.
func Metrics(includeVolatile bool) MetricsSnapshot {
	snap := MetricsSnapshot{Metrics: make([]MetricSnapshot, 0, len(engTable))}
	for _, e := range engTable {
		m := MetricSnapshot{Name: e.name, Help: e.help}
		switch {
		case e.c != nil:
			m.Kind, m.Count = kindCounter, e.c.Load()
		case e.g != nil:
			m.Kind, m.Value = kindGauge, e.g.Load()
		case !includeVolatile:
			continue // a wall-clock histogram
		default:
			m.Kind = kindHistogram
			m.Buckets = make([]Bucket, len(e.h))
			for i := range e.h {
				le := "+Inf"
				if i < len(timeBuckets) {
					le = strconv.FormatFloat(timeBuckets[i], 'g', -1, 64)
				}
				n := e.h[i].Load()
				m.Buckets[i] = Bucket{Le: le, Count: n}
				m.Count += n
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// resetMetrics zeroes every engine metric.
func resetMetrics() {
	for _, e := range engTable {
		switch {
		case e.c != nil:
			e.c.Store(0)
		case e.g != nil:
			e.g.Store(0)
		default:
			for i := range e.h {
				e.h[i].Store(0)
			}
		}
	}
}

// publishOnce guards the expvar registration: expvar.Publish panics on a
// duplicate name, and ServeDebug may be called more than once in tests.
var publishOnce sync.Once

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060"; use
// ":0" to pick a free port) exposing net/http/pprof under /debug/pprof/
// and expvar under /debug/vars, with Metrics(true) published as the expvar
// variable "lva_metrics". It returns the bound address. The server runs on
// a background goroutine for the life of the process: this is an opt-in
// debugging endpoint wired to a CLI flag, not a managed service.
func ServeDebug(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("lva_metrics", expvar.Func(func() any { return Metrics(true) }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug server: %w", err)
	}
	go func() {
		// Serve exits only when the listener closes at process death;
		// the error is uninteresting for a debug endpoint.
		_ = http.Serve(ln, http.DefaultServeMux)
	}()
	return ln.Addr().String(), nil
}
