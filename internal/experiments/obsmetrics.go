package experiments

import (
	"sync"

	"lva/internal/obs"
)

// engMetrics holds the experiment engine's metrics. Unlike the hot-path
// seams in memsim/cache/core these are always on: they fire once per
// kernel simulation or scheduler transition, so their cost is a handful of
// atomics against milliseconds of simulation, and keeping them live means
// RunCacheCounters and the progress reporters work without any opt-in.
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
	}
})
