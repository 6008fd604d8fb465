package experiments

import (
	"sync"

	"lva/internal/memsim"
	"lva/internal/obs"
)

// engMetrics holds the experiment engine's metrics. They are always on:
// they fire once per kernel simulation or scheduler transition, so their
// cost is a handful of atomics against milliseconds of simulation, and
// keeping them live means RunCacheCounters and the progress reporters work
// without any opt-in.
type engMetrics struct {
	cacheHits    *obs.Counter
	cacheSims    *obs.Counter
	preciseHits  *obs.Counter
	cacheLookups *obs.Counter
	inflight     *obs.Gauge
	queueWait    *obs.Histogram
	runWall      *obs.Histogram
	figuresDone  *obs.Counter
	sweepPoints  *obs.Counter

	// Phase-1 simulator events, summed over the Result of every executed
	// or replayed design point (see publish).
	loadMisses  *obs.Counter
	covered     *obs.Counter
	fetches     *obs.Counter
	evictions   *obs.Counter
	writebacks  *obs.Counter
	trainings   *obs.Counter
	confAccepts *obs.Counter
	confRejects *obs.Counter
}

// eng lazily registers the engine metrics exactly once. The timing
// histograms are volatile: their values depend on machine load and
// Parallelism, so they are excluded from deterministic snapshots.
var eng = sync.OnceValue(func() *engMetrics {
	r := obs.Default()
	return &engMetrics{
		cacheHits:    r.Counter("runcache_hits", "Run* calls satisfied from the memo store"),
		cacheSims:    r.Counter("runcache_simulated", "kernel simulations actually executed"),
		preciseHits:  r.Counter("runcache_precise_hits", "memo hits on precise baseline runs"),
		cacheLookups: r.Counter("runcache_lookups", "memo-layer lookups (cachedRun entries, hit or miss)"),
		inflight:     r.Gauge("sched_inflight", "simulations currently holding a gate slot"),
		queueWait:    r.Histogram("sched_queue_wait_seconds", "time simulations waited for a gate slot", obs.TimeBuckets, true),
		runWall:      r.Histogram("run_wall_seconds", "wall time of each executed kernel simulation", obs.TimeBuckets, true),
		figuresDone:  r.Counter("figures_done", "experiment drivers completed"),
		sweepPoints:  r.Counter("sweep_points_done", "sweep design points completed"),

		loadMisses:  r.Counter("memsim_load_misses", "L1 load misses summed over executed and replayed phase-1 points"),
		covered:     r.Counter("memsim_approximations", "L1 load misses covered by an approximation or prediction, summed over phase-1 points"),
		fetches:     r.Counter("memsim_fetches", "blocks fetched into the L1 (demand + prefetch + store allocate), summed over phase-1 points"),
		evictions:   r.Counter("cache_evictions", "valid L1 blocks evicted, summed over phase-1 points"),
		writebacks:  r.Counter("cache_writebacks", "dirty L1 evictions, summed over phase-1 points"),
		trainings:   r.Counter("core_trainings", "approximator training commits, summed over phase-1 points"),
		confAccepts: r.Counter("core_conf_accepts", "trainings whose approximation fell inside the confidence window, summed over phase-1 points"),
		confRejects: r.Counter("core_conf_rejects", "trainings whose approximation fell outside the confidence window, summed over phase-1 points"),
	}
})

// publish adds one phase-1 run's simulator events to the registry. The
// engine calls it once per design point it executes (cachedRun) or
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
