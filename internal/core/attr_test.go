package core

import (
	"testing"

	"lva/internal/obs/attr"
	"lva/internal/value"
)

// TestAttributionTrainCounts drives the approximator with a recorder
// attached and checks that training commits land on the issuing PC with
// accept/reject attribution matching the approximator's own stats.
func TestAttributionTrainCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ValueDelay = 0 // commit trainings immediately
	a := New(cfg)
	rec := attr.NewRecorder("core-test", attr.DefaultEpochWindow)
	a.SetAttribution(rec)

	const pc = uint64(0x420)
	for i := 0; i < 200; i++ {
		a.OnMiss(pc, value.FromFloat(100+float64(i%3)))
	}
	a.Drain()

	stats := a.Stats()
	s := rec.Finalize()
	if len(s.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(s.Sites))
	}
	st := s.Sites[0]
	if st.PC != "0x420" {
		t.Fatalf("site PC = %s, want 0x420", st.PC)
	}
	if st.Trainings != stats.Trainings {
		t.Fatalf("attributed trainings = %d, approximator counted %d", st.Trainings, stats.Trainings)
	}
	if st.Accepts != stats.ConfAccepts || st.Rejects != stats.ConfRejects {
		t.Fatalf("attributed accepts/rejects = %d/%d, stats say %d/%d",
			st.Accepts, st.Rejects, stats.ConfAccepts, stats.ConfRejects)
	}
	if st.Accepts+st.Rejects > 0 && st.MeanRelErr <= 0 {
		t.Fatal("judged trainings recorded but mean relative error is zero")
	}
}

// TestAttributionDelayedTraining checks PC attribution survives the pending
// ring: trainings enqueued under a value delay commit against the PC that
// issued the miss, not whatever load ticked the countdown.
func TestAttributionDelayedTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ValueDelay = 4
	a := New(cfg)
	rec := attr.NewRecorder("core-delay", attr.DefaultEpochWindow)
	a.SetAttribution(rec)

	pcs := []uint64{0x500, 0x504, 0x508}
	for i := 0; i < 120; i++ {
		a.OnMiss(pcs[i%len(pcs)], value.FromFloat(float64(i)))
		a.OnLoad()
		a.OnLoad()
	}
	a.Drain()

	s := rec.Finalize()
	if len(s.Sites) != len(pcs) {
		t.Fatalf("sites = %d, want %d", len(s.Sites), len(pcs))
	}
	var total uint64
	for _, st := range s.Sites {
		if st.Trainings == 0 {
			t.Fatalf("site %s got no trainings", st.PC)
		}
		total += st.Trainings
	}
	if total != a.Stats().Trainings {
		t.Fatalf("attributed trainings sum = %d, approximator counted %d", total, a.Stats().Trainings)
	}
}

// TestAttributionNilRecorderUnchanged pins the seam contract: runs with and
// without a recorder produce identical approximator stats.
func TestAttributionNilRecorderUnchanged(t *testing.T) {
	run := func(wire bool) Stats {
		a := New(DefaultConfig())
		if wire {
			a.SetAttribution(attr.NewRecorder("seam", attr.DefaultEpochWindow))
		}
		for i := 0; i < 500; i++ {
			a.OnMiss(uint64(0x400+i%7*4), value.FromFloat(float64(i%11)))
			a.OnLoad()
		}
		a.Drain()
		return a.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("attaching a recorder changed approximator behaviour")
	}
}
