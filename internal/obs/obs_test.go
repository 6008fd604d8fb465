package obs

import (
	"math"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one shared counter from many goroutines;
// under `go test -race` this is the repo's shared-counter race exercise.
func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("test_shared", "race-exercised shared counter")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestNilSafety checks every metric method is a safe no-op on nil.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Reset()
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}

	var g *Gauge
	g.Set(3)
	g.Add(-1)
	g.Reset()
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}

	var h *Histogram
	h.Observe(1.5)
	h.Reset()
	if h.Count() != 0 || h.Bounds() != nil || h.BucketCounts() != nil || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should read empty")
	}
}

// TestDisabledPathAllocFree checks that nil-receiver metric calls neither
// allocate nor panic.
func TestDisabledPathAllocFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("disabled-path metric calls allocate %.1f per op, want 0", allocs)
	}
}

// TestHistogramBucketEdges pins the le (inclusive upper bound) semantics:
// a value exactly on a bound lands in that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := New()
	h := r.Histogram("test_edges", "", []float64{1, 2, 4}, false)
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, math.Inf(1), math.NaN()} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 3} // ≤1: {0.5,1}; ≤2: {1.0000001,2}; ≤4: {4}; overflow: {4.5,+Inf,NaN}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count slice length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
}

// TestHistogramQuantile checks the cumulative-walk quantile bound.
func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("test_quant", "", []float64{1, 2, 4, 8}, false)
	// 10 observations: 5 in ≤1, 3 in ≤2, 2 in ≤4.
	for i := 0; i < 5; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 3; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 2; i++ {
		h.Observe(3)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 1}, {0.6, 2}, {0.8, 2}, {0.9, 4}, {1, 4},
		{-1, 1}, {2, 4}, // clamped
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile should be 0")
	}
}

// TestRegistryIdempotent checks same-name same-kind registration returns
// the same metric, and cross-kind registration panics as documented.
func TestRegistryIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("test_c", "first")
	b := r.Counter("test_c", "second")
	if a != b {
		t.Fatal("re-registering a counter should return the same instance")
	}
	h1 := r.Histogram("test_h", "", []float64{1, 2}, false)
	h2 := r.Histogram("test_h", "", []float64{1, 2}, false)
	if h1 != h2 {
		t.Fatal("re-registering a histogram should return the same instance")
	}

	mustPanic(t, "kind collision", func() { r.Gauge("test_c", "") })
	mustPanic(t, "bound mismatch", func() { r.Histogram("test_h", "", []float64{1, 3}, false) })
	mustPanic(t, "empty bounds", func() { r.Histogram("test_h2", "", nil, false) })
	mustPanic(t, "non-increasing bounds", func() { r.Histogram("test_h3", "", []float64{2, 1}, false) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestRegistryReset checks Reset zeroes in place without invalidating
// handed-out metric pointers.
func TestRegistryReset(t *testing.T) {
	r := New()
	c := r.Counter("test_rc", "")
	g := r.Gauge("test_rg", "")
	h := r.Histogram("test_rh", "", []float64{1}, false)
	c.Add(7)
	g.Set(-2)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("Reset left state: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	c.Inc()
	if r.Counter("test_rc", "").Value() != 1 {
		t.Fatal("pointer invalidated by Reset")
	}
}

// TestDefaultBuckets sanity-checks the shared preset is valid histogram
// bounds (strictly increasing), since the engine's timings register with it.
func TestDefaultBuckets(t *testing.T) {
	for i := 1; i < len(TimeBuckets); i++ {
		if TimeBuckets[i] <= TimeBuckets[i-1] {
			t.Errorf("TimeBuckets not strictly increasing at %d: %v", i, TimeBuckets)
		}
	}
}
