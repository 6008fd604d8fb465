// Package obs is the simulator's observability layer: a typed metrics
// registry (atomic counters, gauges, fixed-bucket histograms), structured
// event hooks, and debug exposition (expvar + net/http/pprof).
//
// Nothing on the per-load path counts into it. The simulators keep their
// events in their own Stats (memsim.Result carries cache.Stats and
// core.Stats), and the experiment engine (internal/experiments) adds each
// executed or replayed design point's Result to the registry once, beside
// its coarse per-run events: run-cache hits, scheduler occupancy, figure
// progress. That costs a few atomic operations per kernel simulation, so
// the registry is always on.
//
// All metrics are integer event counts (histograms count observations into
// fixed buckets; no floating-point sums are accumulated), so totals are
// independent of goroutine interleaving. Metrics whose *values* depend on
// wall-clock timing (queue waits, run wall times) are registered as
// volatile and excluded from the deterministic snapshot; see
// Registry.Snapshot. Every metric method is nil-receiver-safe and
// allocation-free.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, race-safe event counter. The zero
// value is ready to use; all methods are safe on a nil receiver (no-ops
// reading zero).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. Counters are monotonic within one measurement
// epoch; Reset starts a new epoch (tests, process-cold restores).
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is a race-safe instantaneous value (e.g. in-flight simulations).
// All methods are safe on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Reset zeroes the gauge.
func (g *Gauge) Reset() {
	if g != nil {
		g.v.Store(0)
	}
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v with bounds[i-1] < v <= bounds[i] (the first bucket counts v <=
// bounds[0]); one implicit overflow bucket counts everything above the last
// bound, including +Inf and NaN. Only integer bucket counts are kept — no
// floating-point sum — so concurrent observation order cannot perturb a
// snapshot. All methods are safe on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Smallest i with bounds[i] >= v; NaN compares false everywhere and
	// lands in the overflow bucket like any out-of-range value.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Bounds returns a copy of the bucket upper bounds (the overflow bucket is
// implicit).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns a copy of the per-bucket counts; the final element
// is the overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile returns an upper bound on the q-quantile (q clamped to [0,1]):
// the smallest bucket upper bound whose cumulative count reaches q·Count.
// Observations in the overflow bucket report +Inf is never returned;
// instead the last finite bound is returned for quantiles that land there
// (the histogram cannot resolve beyond its buckets). An empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= target {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Reset zeroes every bucket.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// TimeBuckets are the default duration buckets (seconds) for wall-clock
// histograms: 0.5 ms to 60 s on a coarse log scale.
var TimeBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metricEntry is one registered metric with its metadata.
type metricEntry struct {
	name     string
	kind     string
	help     string
	volatile bool
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// Registry holds named metrics. Registration is idempotent: asking for an
// existing name of the same kind returns the same metric, so packages can
// register lazily from multiple call sites. Metric names are compile-time
// constants in this repository, which is why kind collisions panic (see
// the register methods).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

// defaultRegistry is the process-wide registry every seam registers on.
var defaultRegistry = New()

// Default returns the process-wide registry. It is never nil.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, registering it on first use. It
// panics if name is already registered as a different metric kind: names
// are compile-time constants, so a collision is a programming error.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.get(name, kindCounter, help)
	if e.c == nil {
		e.c = &Counter{}
	}
	r.mu.Unlock()
	return e.c
}

// Gauge returns the named gauge, registering it on first use. It panics on
// a kind collision (see Counter).
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.get(name, kindGauge, help)
	if e.g == nil {
		e.g = &Gauge{}
	}
	r.mu.Unlock()
	return e.g
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket upper bounds. volatile marks metrics whose values
// depend on wall-clock timing; they are excluded from deterministic
// snapshots. It panics on a kind collision, on empty or non-increasing
// bounds, or if an existing histogram was registered with different
// bounds: all three are programming errors in compile-time metric
// definitions.
func (r *Registry) Histogram(name, help string, bounds []float64, volatile bool) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	e := r.get(name, kindHistogram, help)
	if e.h == nil {
		bs := append([]float64(nil), bounds...)
		e.h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
		e.volatile = volatile
	} else if len(e.h.bounds) != len(bounds) {
		r.mu.Unlock()
		panic("obs: histogram " + name + " re-registered with different bounds")
	} else {
		for i := range bounds {
			if e.h.bounds[i] != bounds[i] {
				r.mu.Unlock()
				panic("obs: histogram " + name + " re-registered with different bounds")
			}
		}
	}
	h := e.h
	r.mu.Unlock()
	return h
}

// get locks the registry and returns the entry for name, creating it with
// the given kind and help on first use. The caller must unlock r.mu. It
// panics when name is registered under a different kind (the documented
// contract of the register methods above).
func (r *Registry) get(name, kind, help string) *metricEntry {
	r.mu.Lock()
	e, ok := r.metrics[name]
	if !ok {
		e = &metricEntry{name: name, kind: kind, help: help}
		r.metrics[name] = e
		return e
	}
	if e.kind != kind {
		r.mu.Unlock()
		panic("obs: metric " + name + " already registered as a " + e.kind)
	}
	return e
}

// Reset zeroes every registered metric in place (pointers handed out stay
// valid), restoring process-cold counts for tests and A/B comparisons.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.metrics {
		e.c.Reset()
		e.g.Reset()
		e.h.Reset()
	}
}
