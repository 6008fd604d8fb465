package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"lva/internal/obs/phase"
	"lva/internal/trace"
)

// Phase observatory wiring: when phase profiling is enabled, every
// simulated run (fresh execution, counter replay, or stream recording)
// carries a phase.Profiler (attached by observe) that fingerprints its
// annotated-load stream per epoch, and a second sim-free path profiles recorded .lvag streams with
// one decode pass. Both publish into the phase registry; finalized
// profiles additionally land on the Perfetto timeline as one lane of
// phase-segment spans per run when a capture session is active.

// publishPhaseProfile finalizes p into the phase registry and, when a
// timeline capture is running, renders its epoch-indexed phase timeline
// as contiguous spans scaled linearly onto the run's wall-clock extent
// (start..now), with an instant at each phase transition.
func publishPhaseProfile(p *phase.Profiler, start time.Time) {
	if p == nil {
		return
	}
	prof := p.Finalize()
	phase.PublishProfile(prof)
	t := timeline.Load()
	n := len(prof.Timeline)
	if t == nil || n == 0 {
		return
	}
	tid := t.nextPhaseTid()
	ts := start.Sub(t.start).Microseconds()
	total := time.Since(start).Microseconds()
	if total < int64(n) {
		total = int64(n) // keep every epoch's span ≥1µs wide
	}
	segStart := 0
	for i := 1; i <= n; i++ {
		if i < n && prof.Timeline[i] == prof.Timeline[segStart] {
			continue
		}
		from := ts + total*int64(segStart)/int64(n)
		to := ts + total*int64(i)/int64(n)
		id := prof.Timeline[segStart]
		t.spanAt(tlPidPhase, tid, fmt.Sprintf("phase %d", id), "phase", from, to-from,
			map[string]any{"scope": prof.Scope, "epochs": i - segStart, "first_epoch": segStart})
		if i < n {
			t.instantAt(tlPidPhase, tid, "transition", "phase", to,
				map[string]any{"scope": prof.Scope, "from": id, "to": prof.Timeline[i]})
		}
		segStart = i
	}
}

// ProfileGridStream phase-profiles a recorded .lvag grid stream in one
// decode pass, with no simulation: every annotated load's (pc, addr,
// instruction index) feeds the epoch fingerprints directly. The profile
// clusters on access-vector shape alone (no miss/error scalars exist
// without a sim), is published into the phase registry, and is returned
// along with the stream's header.
func ProfileGridStream(path string) (phase.ScopeProfile, trace.GridHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return phase.ScopeProfile{}, trace.GridHeader{}, err
	}
	defer f.Close()
	hdr, err := trace.ReadGridFooter(f)
	if err != nil {
		return phase.ScopeProfile{}, trace.GridHeader{}, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return phase.ScopeProfile{}, hdr, err
	}
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return phase.ScopeProfile{}, hdr, err
	}
	// The footer key is the recording point's key(), so the scope's hash
	// matches the recording run's own scope.
	p := phase.NewStreamProfiler(hdr.Name + "/stream/" + hashKey(hdr.Key))
	err = trace.Walk(gr, func(a *trace.Access, insts uint64) error {
		if a.Op == trace.Load && a.Approx {
			p.Load(a.PC, a.Addr, insts)
		}
		return nil
	})
	if err != nil {
		return phase.ScopeProfile{}, hdr, err
	}
	prof := p.Finalize()
	phase.PublishProfile(prof)
	return prof, hdr, nil
}
