package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"lva/internal/memsim"
	"lva/internal/obs"
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
		obs.Default().Reset()
	}()

	// capture runs each id list with RunAll, one after the other, from
	// empty memos and a zeroed registry.
	capture := func(par int, runs ...[]string) []byte {
		Parallelism = par
		ResetRunCache()
		obs.Default().Reset()
		for _, ids := range runs {
			if _, err := RunAll(ids...); err != nil {
				t.Fatal(err)
			}
		}
		checkPublishedSums(t, runs)
		b, err := obs.Default().Snapshot(false).JSON()
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
	var snap obs.Snapshot
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

// simCounters maps each registry simulator counter to the memsim.Result
// field the engine publishes into it.
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

// checkPublishedSums requires every simulator counter in the registry to
// equal the sum of its Result field over the memo's run cells (executed
// points) and replay cells (replayed points).
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
	for name, field := range simCounters {
		var want uint64
		for _, r := range results {
			want += field(r)
		}
		if got := obs.Default().Counter(name, "").Value(); got != want {
			t.Errorf("after %v: registry %s = %d, want %d (the sum over %d memoized Results)", runs, name, got, want, len(results))
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
	if eng().runWall.Count() == 0 {
		t.Error("run wall-time histogram recorded nothing")
	}
}
