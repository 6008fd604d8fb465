package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lva/internal/experiments"
)

// TestAlteredCellCountsAsFailed regenerates a real figure, checks that it
// passes the golden check, then alters one cell and checks that the figure
// is counted as failed.
func TestAlteredCellCountsAsFailed(t *testing.T) {
	golden, err := loadGolden(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetTraceDir(t.TempDir())
	defer experiments.SetTraceDir("")
	experiments.ResetRunCache()
	defer experiments.ResetRunCache()

	ids := []string{"table1"}
	figs, err := experiments.RunAll(ids...)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkFigures(figs, ids, golden); len(bad) != 0 {
		t.Fatalf("unaltered figure failed the golden check: %v", bad)
	}
	figs[0].Rows[0].Values[0] += 1
	if bad := checkFigures(figs, ids, golden); len(bad) != 1 || bad[0] != "table1" {
		t.Fatalf("figure with one altered cell: failed = %v, want [table1]", bad)
	}
	if bad := checkFigures(nil, ids, golden); len(bad) != 1 {
		t.Fatalf("missing figure: failed = %v, want [table1]", bad)
	}
}

// TestCountDeviationsReported checks that a run whose counts differ from
// the first run of its set is reported, and that matching runs and runs of
// another set are not.
func TestCountDeviationsReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	first := map[string]uint64{"runcache.simulated": 161, "runcache.hits": 77}
	key := ledgerKey("phase1-exec", 0, 7)

	devs, err := checkLedger(path, key, first)
	if err != nil || len(devs) != 0 {
		t.Fatalf("first run: deviations %v, err %v", devs, err)
	}
	if err := appendLedger(path, key, first, nil); err != nil {
		t.Fatal(err)
	}
	if devs, err := checkLedger(path, key, maps.Clone(first)); err != nil || len(devs) != 0 {
		t.Fatalf("identical run: deviations %v, err %v", devs, err)
	}

	second := maps.Clone(first)
	second["runcache.simulated"] = 162
	devs, err = checkLedger(path, key, second)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 1 || !strings.Contains(devs[0], "runcache.simulated: was 161, now 162") {
		t.Fatalf("differing run: deviations %v, want one on runcache.simulated", devs)
	}
	if devs, _ := checkLedger(path, ledgerKey("phase2", 0, 7), second); len(devs) != 0 {
		t.Fatalf("run of another set compared: %v", devs)
	}

	// Untraced counts do not depend on the seed; traced ones do.
	if ledgerKey("phase2", 0, 1) != ledgerKey("phase2", 0, 2) || ledgerKey("phase2", 1, 1) == ledgerKey("phase2", 1, 2) {
		t.Fatal("ledger keys group runs wrongly")
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (def{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	before := []uint64{5, 0, 0, 0}
	after := []uint64{6, 2, 7, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 0.001}, {0.3, 0.01}, {0.5, 0.1}, {1, 0.1}} {
		if got := bucketQuantile(bounds, before, after, c.q); got != c.want {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(bounds, after, after, 0.5); got != 0 {
		t.Errorf("no waits: got %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if got, want := tr.self(outer), tr.dur(outer)-tr.dur(inner); got != want {
		t.Fatalf("self = %v, want %v", got, want)
	}
}
