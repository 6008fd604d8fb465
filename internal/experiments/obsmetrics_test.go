package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lva/internal/memsim"
)

// TestMetricsSnapshotDeterministic checks the deterministic snapshot is
// byte-stable across repeated runs, across Parallelism levels and across
// the order in which figures reach a shared design point: the singleflight
// run cache simulates every design point exactly once per cold pass, and
// the engine publishes each executed or replayed point's Result once, so
// event totals cannot depend on scheduling. After every pass each
// simulator counter must be the sum of the published Results.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three figures over five passes")
	}
	saved := Parallelism
	defer func() {
		Parallelism = saved
		ResetRunCache()
	}()

	// capture runs each id list with RunAll, one after the other, from
	// empty memos and zeroed metrics.
	capture := func(par int, runs ...[]string) []byte {
		Parallelism = par
		ResetRunCache()
		for _, ids := range runs {
			if _, err := RunAll(ids...); err != nil {
				t.Fatal(err)
			}
		}
		checkPublishedSums(t, runs)
		b, err := json.MarshalIndent(Metrics(false), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	both := []string{"fig12", "fig13"}
	p8a := capture(8, both)
	p8b := capture(8, both)
	p1 := capture(1, both)
	if !bytes.Equal(p8a, p8b) {
		t.Errorf("snapshot differs between two identical Parallelism=8 runs:\n%s\n---\n%s", p8a, p8b)
	}
	if !bytes.Equal(p8a, p1) {
		t.Errorf("snapshot differs between Parallelism=8 and Parallelism=1:\n%s\n---\n%s", p8a, p1)
	}

	// Run first, Fig5 executes the precise and baseline points that Fig12
	// then records, so the trace store recaptures those streams with a
	// second kernel execution. Recorded first, Fig5 hits the recording
	// runs. The snapshot must not tell the two orders apart.
	execFirst := capture(8, []string{"fig5"}, []string{"fig12"})
	if TraceCounters().Recaptures == 0 {
		t.Error("fig5 then fig12 recaptured no stream; the order check proves nothing")
	}
	streamFirst := capture(8, []string{"fig12"}, []string{"fig5"})
	if !bytes.Equal(execFirst, streamFirst) {
		t.Errorf("snapshot differs between fig5-then-fig12 and fig12-then-fig5:\n%s\n---\n%s", execFirst, streamFirst)
	}

	// Sanity: the simulator and engine counters actually counted.
	var snap MetricsSnapshot
	if err := json.Unmarshal(p1, &snap); err != nil {
		t.Fatal(err)
	}
	nonzero := map[string]bool{}
	for _, m := range snap.Metrics {
		if m.Count > 0 {
			nonzero[m.Name] = true
		}
	}
	for _, name := range []string{"memsim_load_misses", "core_trainings", "runcache_simulated", "figures_done"} {
		if !nonzero[name] {
			t.Errorf("expected %s > 0 in snapshot:\n%s", name, p1)
		}
	}
}

// simCounters maps each simulator counter of the engine metrics to the
// memsim.Result field the engine publishes into it.
var simCounters = map[string]func(memsim.Result) uint64{
	"memsim_load_misses":    func(r memsim.Result) uint64 { return r.LoadMisses },
	"memsim_approximations": func(r memsim.Result) uint64 { return r.Covered },
	"memsim_fetches":        func(r memsim.Result) uint64 { return r.Fetches },
	"cache_evictions":       func(r memsim.Result) uint64 { return r.Cache.Evictions },
	"cache_writebacks":      func(r memsim.Result) uint64 { return r.Cache.Writebacks },
	"core_trainings":        func(r memsim.Result) uint64 { return r.Approx.Trainings },
	"core_conf_accepts":     func(r memsim.Result) uint64 { return r.Approx.ConfAccepts },
	"core_conf_rejects":     func(r memsim.Result) uint64 { return r.Approx.ConfRejects },
}

// metricNamed returns the named metric of snap, failing the test when
// snap has none.
func metricNamed(t *testing.T, snap MetricsSnapshot, name string) MetricSnapshot {
	t.Helper()
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metric %s in snapshot", name)
	return MetricSnapshot{}
}

// checkPublishedSums requires every simulator counter of the engine
// metrics to equal the sum of its Result field over the memo's run cells
// (executed points) and replay cells (replayed points).
func checkPublishedSums(t *testing.T, runs [][]string) {
	t.Helper()
	var results []memsim.Result
	memo.Load().Range(func(k, v any) bool {
		switch k.(memoKey).kind {
		case memoRun:
			results = append(results, v.(*memoCell).wait().(RunResult).Sim)
		case memoReplay:
			results = append(results, v.(*memoCell).wait().(memsim.Result))
		}
		return true
	})
	snap := Metrics(false)
	for name, field := range simCounters {
		var want uint64
		for _, r := range results {
			want += field(r)
		}
		if got := metricNamed(t, snap, name).Count; got != want {
			t.Errorf("after %v: %s = %d, want %d (the sum over %d memoized Results)", runs, name, got, want, len(results))
		}
	}
}

// TestEngineMetricsAlwaysOn checks the coarse engine counters fire without
// any opt-in, since RunCacheCounters and the -v stats are built on them.
func TestEngineMetricsAlwaysOn(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	Fig13()
	if s := RunCacheCounters(); s.Simulated == 0 {
		t.Fatalf("runcache counters dead: %+v", s)
	}
	if metricNamed(t, Metrics(true), "run_wall_seconds").Count == 0 {
		t.Error("run wall-time histogram recorded nothing")
	}
}

// TestResetRunCacheZeroesMetrics checks ResetRunCache restores every
// engine metric, the volatile histograms included, to its process-cold
// zero, so a test or benchmark that resets starts from the counts of a
// fresh process.
func TestResetRunCacheZeroesMetrics(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	Fig13()
	var counted int
	for _, m := range Metrics(true).Metrics {
		if m.Count > 0 {
			counted++
		}
	}
	if counted == 0 {
		t.Fatal("Fig13 counted nothing; the reset check proves nothing")
	}
	ResetRunCache()
	for _, m := range Metrics(true).Metrics {
		if m.Count != 0 || m.Value != 0 {
			t.Errorf("%s after ResetRunCache: count %d, value %d, want 0", m.Name, m.Count, m.Value)
		}
		for _, b := range m.Buckets {
			if b.Count != 0 {
				t.Errorf("%s after ResetRunCache: bucket ≤%s holds %d, want 0", m.Name, b.Le, b.Count)
			}
		}
	}
}

// TestCounterConcurrent hammers one engine counter from many goroutines,
// as concurrent simulations do; under -race it is the shared-counter race
// exercise, and no increment may be lost.
func TestCounterConcurrent(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				eng.sweepPoints.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := metricNamed(t, Metrics(false), "sweep_points_done").Count; got != workers*per {
		t.Fatalf("sweep_points_done = %d, want %d", got, workers*per)
	}
}

// TestMetricsTable pins the engine's metric set: Metrics(true) lists
// exactly these 17 metrics in this order with these kinds, each with a
// help string. lvabench reads runcache_lookups and
// sched_queue_wait_seconds by name.
func TestMetricsTable(t *testing.T) {
	want := []struct{ name, kind string }{
		{"cache_evictions", kindCounter},
		{"cache_writebacks", kindCounter},
		{"core_conf_accepts", kindCounter},
		{"core_conf_rejects", kindCounter},
		{"core_trainings", kindCounter},
		{"figures_done", kindCounter},
		{"memsim_approximations", kindCounter},
		{"memsim_fetches", kindCounter},
		{"memsim_load_misses", kindCounter},
		{"run_wall_seconds", kindHistogram},
		{"runcache_hits", kindCounter},
		{"runcache_lookups", kindCounter},
		{"runcache_precise_hits", kindCounter},
		{"runcache_simulated", kindCounter},
		{"sched_inflight", kindGauge},
		{"sched_queue_wait_seconds", kindHistogram},
		{"sweep_points_done", kindCounter},
	}
	all := Metrics(true).Metrics
	if len(all) != len(want) {
		t.Fatalf("Metrics(true) lists %d metrics, want %d", len(all), len(want))
	}
	for i, w := range want {
		if m := all[i]; m.Name != w.name || m.Kind != w.kind || m.Help == "" {
			t.Errorf("metric %d = %s (%s, help %q), want %s (%s) with help", i, m.Name, m.Kind, m.Help, w.name, w.kind)
		}
	}
}

// TestSnapshotSortedAndDeterministic checks both snapshots are strictly
// name-sorted and that repeated renderings of unchanged metrics are
// byte-identical.
func TestSnapshotSortedAndDeterministic(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	eng.cacheLookups.Add(3)
	eng.inflight.Store(-4)
	eng.runWall.observe(0.01)
	for _, volatile := range []bool{false, true} {
		s := Metrics(volatile)
		var prev string
		for _, m := range s.Metrics {
			if m.Name <= prev {
				t.Fatalf("Metrics(%v) not strictly name-sorted: %q after %q", volatile, m.Name, prev)
			}
			prev = m.Name
		}
		a, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(Metrics(volatile), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("repeated Metrics(%v) snapshots differ:\n%s\n---\n%s", volatile, a, b)
		}
	}
}

// TestSnapshotVolatileFilter checks Metrics(false) is Metrics(true) less
// exactly the two wall-clock histograms, the volatile metrics.
func TestSnapshotVolatileFilter(t *testing.T) {
	var kept []string
	for _, m := range Metrics(true).Metrics {
		if m.Name != "run_wall_seconds" && m.Name != "sched_queue_wait_seconds" {
			kept = append(kept, m.Name)
		}
	}
	var det []string
	for _, m := range Metrics(false).Metrics {
		det = append(det, m.Name)
	}
	if fmt.Sprint(det) != fmt.Sprint(kept) {
		t.Errorf("Metrics(false) = %v, want %v", det, kept)
	}
}

// TestDefaultBuckets checks the wall-clock histograms' bounds are strictly
// increasing, or the bucket search would misfile values.
func TestDefaultBuckets(t *testing.T) {
	for i := 1; i < len(timeBuckets); i++ {
		if timeBuckets[i] <= timeBuckets[i-1] {
			t.Errorf("timeBuckets not strictly increasing at %d: %v", i, timeBuckets)
		}
	}
}

// TestHistogramBucketEdges pins the le (inclusive upper bound) semantics
// of the wall-clock histograms: a value exactly on a bound lands in that
// bound's bucket, and values above the last bound, +Inf and NaN land in
// the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	var h timeHist
	last := timeBuckets[len(timeBuckets)-1]
	for _, v := range []float64{0, 0.0005, 0.00050001, 0.001, last, last + 1, math.Inf(1), math.NaN()} {
		h.observe(v)
	}
	// ≤0.0005: {0, 0.0005}; ≤0.001: {0.00050001, 0.001}; ≤60: {60};
	// overflow: {61, +Inf, NaN}.
	want := map[int]uint64{0: 2, 1: 2, len(timeBuckets) - 1: 1, len(timeBuckets): 3}
	for i := range h {
		if got := h[i].Load(); got != want[i] {
			t.Errorf("bucket %d holds %d, want %d", i, got, want[i])
		}
	}
}

// TestSnapshotBucketRendering pins the histogram wire format: every
// bucket present with its bound rendered by 'g' formatting, the overflow
// rendered as "+Inf", and the count their total.
func TestSnapshotBucketRendering(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	eng.runWall.observe(0.01)
	eng.runWall.observe(0.01)
	eng.runWall.observe(1000)
	m := metricNamed(t, Metrics(true), "run_wall_seconds")
	if m.Count != 3 {
		t.Errorf("histogram count = %d, want 3", m.Count)
	}
	wantLe := []string{"0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "30", "60", "+Inf"}
	if len(m.Buckets) != len(wantLe) {
		t.Fatalf("%d buckets, want %d", len(m.Buckets), len(wantLe))
	}
	for i, bk := range m.Buckets {
		var n uint64
		switch bk.Le {
		case "0.01":
			n = 2
		case "+Inf":
			n = 1
		}
		if bk.Le != wantLe[i] || bk.Count != n {
			t.Errorf("bucket %d = {%s, %d}, want {%s, %d}", i, bk.Le, bk.Count, wantLe[i], n)
		}
	}
}

// TestSnapshotRoundTrip checks that decoding a snapshot's JSON, as
// lvareport does with a run bundle's metrics section, gives back a
// snapshot that encodes to the same bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	eng.cacheLookups.Add(7)
	eng.inflight.Store(2)
	eng.queueWait.observe(0.3)
	b, err := json.Marshal(Metrics(true))
	if err != nil {
		t.Fatal(err)
	}
	var got MetricsSnapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed bytes:\n%s\n---\n%s", b, b2)
	}
}

// TestSnapshotMarkdown spot-checks the report rendering of each kind.
func TestSnapshotMarkdown(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	eng.figuresDone.Add(3)
	eng.inflight.Store(-4)
	eng.runWall.observe(0.25)
	eng.runWall.observe(99)
	md := Metrics(true).Markdown()
	for _, want := range []string{
		"| metric | kind | value |\n|---|---|---|\n| cache_evictions | counter | 0 |\n",
		"| figures_done | counter | 3 |\n",
		"| sched_inflight | gauge | -4 |\n",
		"| run_wall_seconds | histogram | n=2 (≤0.25: 1, ≤+Inf: 1) |\n",
		"| sched_queue_wait_seconds | histogram | n=0 |\n",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if md := Metrics(false).Markdown(); strings.Contains(md, "histogram") {
		t.Errorf("deterministic markdown includes a volatile metric:\n%s", md)
	}
}

// scrapeMetrics fetches the debug server's /debug/vars and decodes its
// lva_metrics variable.
func scrapeMetrics(client *http.Client, addr string) (MetricsSnapshot, error) {
	var snap MetricsSnapshot
	resp, err := client.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return snap, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		return snap, fmt.Errorf("/debug/vars is not JSON: %w", err)
	}
	raw, ok := vars["lva_metrics"]
	if !ok {
		return snap, fmt.Errorf("/debug/vars has no lva_metrics")
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("lva_metrics is not a snapshot: %w", err)
	}
	return snap, nil
}

// TestServeDebug is the -pprof endpoint smoke test: the debug server must
// serve the pprof index and publish Metrics(true) through expvar.
func TestServeDebug(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	eng.figuresDone.Add(5)
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ index does not look like pprof (status %d, err %v):\n%.200s", resp.StatusCode, err, body)
	}

	snap, err := scrapeMetrics(client, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) != len(engTable) {
		t.Errorf("lva_metrics lists %d metrics, want all %d", len(snap.Metrics), len(engTable))
	}
	if n := metricNamed(t, snap, "figures_done").Count; n != 5 {
		t.Errorf("lva_metrics figures_done = %d, want 5", n)
	}

	// A second ServeDebug must not panic on the expvar re-publish.
	if _, err := ServeDebug("127.0.0.1:0"); err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
}

// TestServeDebugConcurrentScrape is the race gate for the debug endpoint:
// goroutines update the engine metrics, as running simulations do, while
// several readers scrape /debug/vars, so the published Metrics(true) runs
// concurrently with every writer. Under -race this fails on any
// unsynchronized access; functionally each scrape must decode to a
// snapshot whose counter never reads less than an earlier scrape did.
func TestServeDebugConcurrentScrape(t *testing.T) {
	resetMetrics()
	defer resetMetrics()
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					eng.sweepPoints.Add(1)
					eng.inflight.Store(int64(i % 3))
					eng.queueWait.observe(float64(i%200) / 100)
				}
			}
		}()
	}

	client := &http.Client{Timeout: 5 * time.Second}
	var readers sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev uint64
			for i := 0; i < 10; i++ {
				snap, err := scrapeMetrics(client, addr)
				if err != nil {
					errs <- fmt.Errorf("scrape %d: %w", i, err)
					return
				}
				var n uint64
				found := false
				for _, m := range snap.Metrics {
					if m.Name == "sweep_points_done" {
						n, found = m.Count, true
					}
				}
				if !found || n < prev {
					errs <- fmt.Errorf("scrape %d: sweep_points_done = %d (present %v) after %d", i, n, found, prev)
					return
				}
				prev = n
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
