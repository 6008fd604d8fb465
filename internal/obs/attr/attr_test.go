package attr

import (
	"encoding/json"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestSiteTableGrowthKeepsCounts(t *testing.T) {
	r := NewRecorder("grow", DefaultEpochWindow)
	const n = 2000
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			pc := uint64(0x400000 + i*4)
			r.Load(pc, uint64(i))
			if i%2 == 0 {
				r.Miss(pc, true, false)
			}
		}
	}
	if r.Sites() != n {
		t.Fatalf("Sites() = %d, want %d", r.Sites(), n)
	}
	s := r.Finalize()
	if len(s.Sites) != n {
		t.Fatalf("Finalize sites = %d, want %d", len(s.Sites), n)
	}
	for i := 1; i < len(s.Sites); i++ {
		if s.Sites[i-1].PC >= s.Sites[i].PC {
			t.Fatalf("sites not sorted by PC: %s before %s", s.Sites[i-1].PC, s.Sites[i].PC)
		}
	}
	for _, st := range s.Sites {
		if st.Loads != 3 {
			t.Fatalf("site %s: Loads = %d, want 3 (growth lost counts)", st.PC, st.Loads)
		}
	}
}

func TestZeroPCTracked(t *testing.T) {
	r := NewRecorder("zero", DefaultEpochWindow)
	r.Load(0, 1)
	r.Load(0, 2)
	r.Miss(0, false, true)
	if r.Sites() != 1 {
		t.Fatalf("Sites() = %d, want 1", r.Sites())
	}
	s := r.Finalize()
	if len(s.Sites) != 1 || s.Sites[0].PC != "0x0" {
		t.Fatalf("zero-PC site missing: %+v", s.Sites)
	}
	if s.Sites[0].Loads != 2 || s.Sites[0].Fetches != 1 {
		t.Fatalf("zero-PC counters wrong: %+v", s.Sites[0])
	}
}

func TestTrainAccumulatesError(t *testing.T) {
	r := NewRecorder("train", DefaultEpochWindow)
	r.Train(0x40, true, true, true, false, 0.02)
	r.Train(0x40, true, false, false, true, 0.30)
	r.Train(0x40, false, false, false, false, 0) // no approximation to judge
	s := r.Finalize()
	st := s.Sites[0]
	if st.Trainings != 3 || st.Accepts != 1 || st.Rejects != 1 {
		t.Fatalf("training counters wrong: %+v", st)
	}
	if st.ConfGained != 1 || st.ConfLost != 1 {
		t.Fatalf("confidence crossings wrong: %+v", st)
	}
	if want := (0.02 + 0.30) / 2; st.MeanRelErr != want {
		t.Fatalf("MeanRelErr = %v, want %v", st.MeanRelErr, want)
	}
	if st.MaxRelErr != 0.30 {
		t.Fatalf("MaxRelErr = %v, want 0.30", st.MaxRelErr)
	}
}

func TestEpochSealingAndRingWrap(t *testing.T) {
	r := NewRecorder("ring", 10)
	total := (epochRingCap + 88) * 10
	for i := 0; i < total; i++ {
		r.Load(0x40, uint64(i*3)) // 3 insts per load keeps Insts nonzero
	}
	if r.TotalEpochs() != epochRingCap+88 {
		t.Fatalf("TotalEpochs = %d, want %d", r.TotalEpochs(), epochRingCap+88)
	}
	s := r.Finalize()
	if s.DroppedEpochs != 88 {
		t.Fatalf("DroppedEpochs = %d, want 88", s.DroppedEpochs)
	}
	if len(s.Epochs) != epochRingCap {
		t.Fatalf("retained epochs = %d, want %d", len(s.Epochs), epochRingCap)
	}
	if s.Epochs[0].Index != 88 {
		t.Fatalf("oldest retained epoch index = %d, want 88 (ring should drop oldest)", s.Epochs[0].Index)
	}
	for i := 1; i < len(s.Epochs); i++ {
		if s.Epochs[i].Index != s.Epochs[i-1].Index+1 {
			t.Fatalf("epoch indices not consecutive at %d: %d after %d", i, s.Epochs[i].Index, s.Epochs[i-1].Index)
		}
	}
}

func TestFinalizeSealsPartialEpoch(t *testing.T) {
	r := NewRecorder("partial", 100)
	for i := 0; i < 250; i++ {
		r.Load(0x40, uint64(i))
	}
	s := r.Finalize()
	if len(s.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3 (two full + one partial)", len(s.Epochs))
	}
	if s.Epochs[2].Loads != 50 {
		t.Fatalf("partial epoch loads = %d, want 50", s.Epochs[2].Loads)
	}
}

func TestRunShorterThanOneWindow(t *testing.T) {
	r := NewRecorder("short", 100)
	for i := 0; i < 7; i++ {
		r.Load(0x40, uint64(i))
	}
	s := r.Finalize()
	if len(s.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1 (run shorter than one window still seals)", len(s.Epochs))
	}
	if s.Epochs[0].Loads != 7 {
		t.Fatalf("epoch loads = %d, want 7", s.Epochs[0].Loads)
	}
	if s.DroppedEpochs != 0 {
		t.Fatalf("DroppedEpochs = %d, want 0", s.DroppedEpochs)
	}
}

func TestExactMultipleWindowBoundary(t *testing.T) {
	r := NewRecorder("exact", 50)
	for i := 0; i < 150; i++ {
		r.Load(0x40, uint64(i))
	}
	s := r.Finalize()
	if len(s.Epochs) != 3 {
		t.Fatalf("epochs = %d, want exactly 3 (no empty trailing epoch at an exact multiple)", len(s.Epochs))
	}
	for i, e := range s.Epochs {
		if e.Loads != 50 {
			t.Fatalf("epoch %d loads = %d, want 50", i, e.Loads)
		}
	}
}

func TestRingWrapAccountingReconciles(t *testing.T) {
	r := NewRecorder("reconcile", 10)
	total := (epochRingCap+5)*10 + 4 // cap+5 full epochs, then a 4-load partial
	for i := 0; i < total; i++ {
		r.Load(0x40, uint64(i))
	}
	s := r.Finalize()
	if got, want := s.DroppedEpochs+len(s.Epochs), epochRingCap+6; got != want {
		t.Fatalf("dropped (%d) + retained (%d) = %d, want %d total epochs",
			s.DroppedEpochs, len(s.Epochs), got, want)
	}
	if s.DroppedEpochs != 6 {
		t.Fatalf("DroppedEpochs = %d, want 6", s.DroppedEpochs)
	}
	var loads uint64
	for _, e := range s.Epochs {
		loads += e.Loads
	}
	if want := uint64((epochRingCap-1)*10 + 4); loads != want {
		t.Fatalf("retained epoch loads = %d, want %d (full epochs + trailing partial)", loads, want)
	}
	if last := s.Epochs[len(s.Epochs)-1]; last.Loads != 4 {
		t.Fatalf("trailing partial epoch loads = %d, want 4", last.Loads)
	}
}

func TestNewRecorderRejectsNonPositiveWindow(t *testing.T) {
	for _, w := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRecorder with window %d did not panic", w)
				}
			}()
			NewRecorder("bad", w)
		}()
	}
}

func TestEpochStatsDerivedRates(t *testing.T) {
	e := Epoch{Loads: 100, Insts: 2000, Misses: 10, Covered: 5, Accepts: 3, Rejects: 1, ErrSum: 0.4}
	s := epochStats(e)
	if s.MPKI != 5.0 { // 10 misses * 1000 / 2000 insts
		t.Fatalf("MPKI = %v, want 5.0", s.MPKI)
	}
	if s.Coverage != 0.5 {
		t.Fatalf("Coverage = %v, want 0.5", s.Coverage)
	}
	if s.MeanRelErr != 0.1 {
		t.Fatalf("MeanRelErr = %v, want 0.1", s.MeanRelErr)
	}
}

func TestDriftRatio(t *testing.T) {
	mk := func(errs ...float64) ScopeStats {
		var s ScopeStats
		for i, e := range errs {
			s.Epochs = append(s.Epochs, EpochStats{Index: i, MeanRelErr: e, Accepts: 10})
		}
		return s
	}
	if ratio, ok := mk(0.1, 0.1, 0.2, 0.2).DriftRatio(); !ok || ratio != 2.0 {
		t.Fatalf("DriftRatio = %v, %v; want 2.0, true", ratio, ok)
	}
	if _, ok := mk(0.1).DriftRatio(); ok {
		t.Fatal("DriftRatio with one epoch must report not-ok")
	}
	var noJudged ScopeStats
	noJudged.Epochs = []EpochStats{{}, {}}
	if _, ok := noJudged.DriftRatio(); ok {
		t.Fatal("DriftRatio with no judged trainings must report not-ok")
	}
}

func TestPublishSnapshotRoundtrip(t *testing.T) {
	Reset()
	defer Reset()
	r := NewRecorder("bench/lva/cafe", DefaultEpochWindow)
	r.Load(0x40, 10)
	r.Miss(0x40, true, false)
	r.Train(0x40, true, true, false, false, 0.05)
	Publish(r)

	// Replace-semantics: republishing the same scope is idempotent.
	r2 := NewRecorder("bench/lva/cafe", DefaultEpochWindow)
	r2.Load(0x40, 10)
	r2.Miss(0x40, true, false)
	r2.Train(0x40, true, true, false, false, 0.05)
	Publish(r2)

	snap := TakeSnapshot()
	if len(snap.Scopes) != 1 {
		t.Fatalf("scopes = %d, want 1 (publish must replace per scope)", len(snap.Scopes))
	}
	b, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatal("snapshot JSON roundtrip not identical")
	}
	Reset()
	if n := len(TakeSnapshot().Scopes); n != 0 {
		t.Fatalf("Reset left %d scopes", n)
	}
}

func TestSnapshotSortedByScope(t *testing.T) {
	Reset()
	defer Reset()
	for _, scope := range []string{"zeta/lva/1", "alpha/lva/2", "mid/lvp/3"} {
		r := NewRecorder(scope, DefaultEpochWindow)
		r.Load(0x40, 1)
		Publish(r)
	}
	snap := TakeSnapshot()
	for i := 1; i < len(snap.Scopes); i++ {
		if snap.Scopes[i-1].Scope >= snap.Scopes[i].Scope {
			t.Fatalf("scopes not sorted: %q before %q", snap.Scopes[i-1].Scope, snap.Scopes[i].Scope)
		}
	}
}

func TestIdenticalRunsFinalizeIdentically(t *testing.T) {
	run := func() ScopeStats {
		r := NewRecorder("det", 7)
		for i := 0; i < 300; i++ {
			pc := uint64(0x400 + i%13*4)
			r.Load(pc, uint64(i*2))
			if i%3 == 0 {
				r.Miss(pc, i%6 == 0, i%6 != 0)
				r.Train(pc, true, i%2 == 0, false, false, float64(i%7)*0.01)
			}
		}
		return r.Finalize()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical event streams must finalize identically")
	}
}

// TestConcurrentPublishSnapshot pins the registry's locking: the harness
// publishes one recorder per finished run from whichever scheduler
// goroutine ran it, concurrently with snapshot readers. Run under -race
// (ci.sh does) this is the registry's race gate.
func TestConcurrentPublishSnapshot(t *testing.T) {
	Reset()
	defer Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := NewRecorder("bench/lva/"+strconv.Itoa(g), DefaultEpochWindow)
				r.Load(uint64(0x400+g), uint64(i))
				r.Train(uint64(0x400+g), true, true, false, false, 0.25)
				Publish(r)
				if len(TakeSnapshot().Scopes) == 0 {
					t.Error("snapshot empty while publishing")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := TakeSnapshot()
	if len(snap.Scopes) != 8 {
		t.Fatalf("scopes = %d, want 8 (one per goroutine, republication idempotent)", len(snap.Scopes))
	}
}
