package memsim

import (
	"testing"

	"lva/internal/obs/attr"
)

// driveAnnotated issues a deterministic mix of annotated and plain loads
// across a few static PCs, with enough distinct blocks to force misses.
func driveAnnotated(sim *Simulator) {
	for i := 0; i < 4000; i++ {
		pc := uint64(0x400 + i%5*4)
		sim.LoadFloat(pc, uint64(0x100000+i*64), float64(i%9), true)
		sim.LoadInt(0x700, 0x2000, 7, false) // plain load, never attributed
		sim.Tick(2)
	}
}

// TestAttributionRecordsAnnotatedSites checks the simulator seam: annotated
// loads land on their issuing PCs, plain loads do not appear, and the miss
// split (covered vs fetched) is consistent with the run's totals.
func TestAttributionRecordsAnnotatedSites(t *testing.T) {
	sim := New(DefaultConfig())
	rec := attr.NewRecorder("memsim-test", attr.DefaultEpochWindow)
	sim.SetAttribution(rec)
	driveAnnotated(sim)
	res := sim.Result()

	s := rec.Finalize()
	if len(s.Sites) != 5 {
		t.Fatalf("sites = %d, want 5 annotated PCs (plain loads must not attribute)", len(s.Sites))
	}
	var loads, misses, covered uint64
	for _, st := range s.Sites {
		loads += st.Loads
		misses += st.Misses
		covered += st.Covered
	}
	if loads != 4000 {
		t.Fatalf("attributed loads = %d, want 4000", loads)
	}
	if misses == 0 || covered == 0 {
		t.Fatalf("expected misses and coverage, got %d/%d", misses, covered)
	}
	if covered != res.Covered {
		t.Fatalf("attributed covered = %d, simulator counted %d", covered, res.Covered)
	}
}

// TestAttributionPreciseAttachmentFetches checks the uncovered-miss path:
// under AttachNone every annotated miss attributes as an uncovered fetch.
func TestAttributionPreciseAttachmentFetches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Attach = AttachNone
	sim := New(cfg)
	rec := attr.NewRecorder("memsim-precise", attr.DefaultEpochWindow)
	sim.SetAttribution(rec)
	driveAnnotated(sim)

	s := rec.Finalize()
	var misses, covered, fetches uint64
	for _, st := range s.Sites {
		misses += st.Misses
		covered += st.Covered
		fetches += st.Fetches
	}
	if misses == 0 {
		t.Fatal("expected annotated misses under AttachNone")
	}
	if covered != 0 {
		t.Fatalf("covered = %d under AttachNone, want 0", covered)
	}
	if fetches != misses {
		t.Fatalf("fetches = %d, want %d (every precise miss fetches)", fetches, misses)
	}
}

// TestAttributionEpochsTrackInstructions checks the epoch seam end to end
// through the simulator: windows seal on annotated-load counts and carry
// instruction deltas from the simulator's running count.
func TestAttributionEpochsTrackInstructions(t *testing.T) {
	sim := New(DefaultConfig())
	rec := attr.NewRecorder("memsim-epochs", 500)
	sim.SetAttribution(rec)
	driveAnnotated(sim)

	s := rec.Finalize()
	if len(s.Epochs) != 8 {
		t.Fatalf("epochs = %d, want 8 (4000 annotated loads / 500)", len(s.Epochs))
	}
	for i, e := range s.Epochs {
		if e.Loads != 500 {
			t.Fatalf("epoch %d loads = %d, want 500", i, e.Loads)
		}
		if e.Insts == 0 {
			t.Fatalf("epoch %d has zero instruction delta", i)
		}
	}
}

// TestAttributionSteadyStateAllocFree pins the recorder's own hot methods:
// once the site table holds the run's static PCs and the epoch ring is at
// capacity, attributing a load/miss/training allocates nothing.
func TestAttributionSteadyStateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Approx.ValueDelay = 0
	sim := New(cfg)
	rec := attr.NewRecorder("memsim-allocs", 64)
	sim.SetAttribution(rec)
	driveAnnotated(sim) // warms the site table and seals epochs into the preallocated ring
	addr := uint64(0x900000)
	i := 0
	assertZeroAllocs(t, "attributed covered miss", func() {
		sim.LoadFloat(uint64(0x400+i%5*4), addr, 1, true)
		addr += 64
		i++
	})
}

// TestAttributionDoesNotChangeResults pins the observer contract: wiring a
// recorder must not perturb any simulation metric.
func TestAttributionDoesNotChangeResults(t *testing.T) {
	run := func(wire bool) Result {
		sim := New(DefaultConfig())
		if wire {
			sim.SetAttribution(attr.NewRecorder("observer", attr.DefaultEpochWindow))
		}
		driveAnnotated(sim)
		return sim.Result()
	}
	if run(false) != run(true) {
		t.Fatal("attaching a recorder changed simulation results")
	}
}
