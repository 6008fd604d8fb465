package lva_test

import (
	"testing"

	"lva"
)

// TestFacadeApproximator exercises the public approximator API directly.
func TestFacadeApproximator(t *testing.T) {
	cfg := lva.DefaultApproximatorConfig()
	cfg.ValueDelay = 0
	a := lva.NewApproximator(cfg)
	for i := 0; i < 4; i++ {
		a.OnMiss(0x400, lva.IntValue(40))
	}
	d := a.OnMiss(0x400, lva.IntValue(100))
	if !d.Approximated || d.Value.Int() != 40 {
		t.Fatalf("decision = %+v", d)
	}
}

// TestFacadeSimulator runs a small kernel through the public simulator.
func TestFacadeSimulator(t *testing.T) {
	cfg := lva.DefaultSimConfig()
	sim := lva.NewSimulator(cfg)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4096; i++ {
			sim.LoadFloat(0x400, 0x100000+uint64(i)*8, 50.0, true)
			sim.Tick(10)
		}
	}
	res := sim.Result()
	if res.LoadMisses == 0 {
		t.Fatal("a 32 KB stream over two passes must miss")
	}
	if res.Coverage() == 0 {
		t.Fatal("a constant value stream must be covered")
	}
	if res.EffectiveMPKI() >= res.RawMPKI() {
		t.Fatal("coverage must reduce effective MPKI")
	}
}

// TestFacadeWorkloads checks the workload registry via the facade.
func TestFacadeWorkloads(t *testing.T) {
	if len(lva.Workloads()) != 7 {
		t.Fatal("seven kernels expected")
	}
	w, err := lva.WorkloadByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "swaptions" || !w.FloatData() {
		t.Fatalf("workload = %v", w)
	}
	if _, err := lva.WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestFacadeEndToEnd records a trace and replays it in the full-system
// simulator, precisely and under LVA — the complete two-phase methodology
// through public API only.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	sw := lva.NewSwaptions()
	sw.NSwaptions, sw.Paths = 4, 50
	res, err := lva.RunFullSystem(sw, 42, lva.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("replay result = %+v", res)
	}

	acfg := lva.DefaultApproximatorConfig()
	acfg.ValueDelay = 1
	scfg := lva.DefaultSystemConfig()
	scfg.Approx = &acfg
	res2, err := lva.RunFullSystem(sw, 42, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Instructions != res.Instructions {
		t.Fatalf("LVA replay ran %d instructions, precise %d: both replay one recording", res2.Instructions, res.Instructions)
	}
	if res2.Cycles > res.Cycles*2 {
		t.Fatalf("LVA replay pathologically slow: %d vs %d", res2.Cycles, res.Cycles)
	}
}

// TestRunExperiment drives an experiment through the facade registry.
func TestRunExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	fig, ok := lva.RunExperiment("fig12")
	if !ok {
		t.Fatal("fig12 must exist")
	}
	row, ok := fig.Row("static approx load PCs")
	if !ok {
		t.Fatal("missing row")
	}
	// Paper Figure 12: static approximate-load counts are small (<= ~300).
	for i, v := range row.Values {
		if v <= 0 || v > 300 {
			t.Fatalf("%s: static PCs = %v, outside the paper's range",
				fig.Benchmarks[i], v)
		}
	}
	if _, ok := lva.RunExperiment("nope"); ok {
		t.Fatal("unknown experiment must miss")
	}
	if len(lva.Experiments()) != 18 {
		t.Fatalf("experiments = %d", len(lva.Experiments()))
	}
}
