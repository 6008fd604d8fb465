package experiments

import (
	"os"
	"strings"
	"testing"

	"lva/internal/workloads"
)

// TestMain deletes the per-process trace store once every test has run.
// RunAll records into a lazily created temp directory that only
// ResetRunCache removes, and a test run alone (TestFigureGoldenHashes,
// say) may never call it.
func TestMain(m *testing.M) {
	code := m.Run()
	ResetRunCache()
	os.Exit(code)
}

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation-compute", "ablation-conf", "ablation-lhb", "ablation-table", "ext-lane", "ext-mlp"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		if Registry[id] == nil {
			t.Fatalf("registry missing %q", id)
		}
	}
}

func TestFigureAccessors(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "t", ValueUnit: "u",
		Benchmarks: []string{"a", "b"},
		Rows:       []Row{{Label: "r", Values: []float64{1, 3}}},
	}
	if v, ok := f.Value("r", "b"); !ok || v != 3 {
		t.Fatalf("Value = %v, %v", v, ok)
	}
	if _, ok := f.Value("r", "zzz"); ok {
		t.Fatal("unknown benchmark must miss")
	}
	if _, ok := f.Value("zzz", "a"); ok {
		t.Fatal("unknown series must miss")
	}
	if r, ok := f.Row("r"); !ok || r.Mean() != 2 {
		t.Fatalf("Row = %+v, %v", r, ok)
	}
	out := f.String()
	for _, want := range []string{"x", "series", "a", "b", "mean", "1.000", "3.000", "2.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

func TestPreciseMemoization(t *testing.T) {
	w, _ := workloads.ByName("swaptions") // fastest kernel
	a := RunPrecise(w, DefaultSeed)
	b := RunPrecise(w, DefaultSeed)
	if a.Sim.Instructions != b.Sim.Instructions {
		t.Fatal("memoized precise runs must be identical")
	}
}

func TestBaselineFor(t *testing.T) {
	for _, w := range workloads.All() {
		cfg := BaselineFor(w)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s baseline invalid: %v", w.Name(), err)
		}
		if cfg.IntConfidence {
			t.Fatalf("%s: baseline never uses integer confidence", w.Name())
		}
	}
}

// TestFig13Shape runs the cheapest full experiment driver end to end and
// checks the paper's claim: dropping mantissa bits lowers fluidanimate's
// normalized MPKI (Figure 13).
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	f := Fig13()
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	first := f.Rows[0].Values[0] // loss-0
	last := f.Rows[len(f.Rows)-1].Values[0]
	if last >= first {
		t.Fatalf("MPKI must fall with mantissa loss: %.3f -> %.3f", first, last)
	}
}

// TestFig1Shape checks the headline Figure 1 property: bodytrack's output
// under LVA is nearly indiscernible from precise execution.
func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	f := Fig1()
	errRow, ok := f.Row("output error")
	if !ok {
		t.Fatal("missing output error row")
	}
	if errRow.Values[0] > 0.10 {
		t.Fatalf("bodytrack LVA output error %.3f too high", errRow.Values[0])
	}
	cov, _ := f.Row("coverage")
	if cov.Values[0] < 0.2 {
		t.Fatalf("bodytrack coverage %.3f too low", cov.Values[0])
	}
}

// TestCaptureTraceShape validates the phase-1 -> phase-2 hand-off: the
// precise recording's footer.
func TestCaptureTraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	ResetRunCache()
	defer ResetRunCache()
	w, _ := workloads.ByName("swaptions")
	st := ensureStream(precisePoint(w, DefaultSeed))
	if st.path == "" {
		t.Fatal("recording failed")
	}
	if st.hdr.Accesses == 0 {
		t.Fatal("empty recording")
	}
	if st.hdr.Threads != 4 {
		t.Fatalf("threads = %d, want 4", st.hdr.Threads)
	}
	if st.hdr.ApproxLoads == 0 {
		t.Fatal("recording must mark approximate loads")
	}
}
