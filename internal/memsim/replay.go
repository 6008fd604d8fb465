package memsim

import (
	"io"

	"lva/internal/trace"
)

// Replay feeds a recorded grid stream through one or more simulators,
// reproducing the recording run's per-access dispatch without executing
// any kernel arithmetic. Every state transition in the phase-1 model is a
// function of (pc, addr, precise value, instruction gap, thread, approx
// flag) — all captured exactly — so counters from a replayed simulator are
// identical to the run that recorded the stream, for any attachment and
// configuration whose annotated stream matches the recording (see the
// experiments layer for which design points qualify).
//
// Passing K simulators amortizes the decode: each decoded chunk is
// dispatched into every sim before the next chunk is read, so one trace
// pass drives K independent design points while touching each chunk once.
// instructions is the recording run's final instruction count (from
// GridHeader.Instructions); trailing non-memory work past the last access
// is re-applied as a final Tick.
func Replay(src trace.ChunkSource, instructions uint64, sims []*Sim) error {
	for {
		accs, insts, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, s := range sims {
			for i := range accs {
				a := &accs[i]
				// Catch up the non-memory instructions since this sim's
				// previous access: the recording observed the access at
				// global index insts[i], and dispatch below retires the
				// access instruction itself, exactly like execution.
				s.thread = a.Thread
				s.insts = insts[i]
				if a.Op == trace.Store {
					s.Store(a.PC, a.Addr)
				} else {
					s.load(a.PC, a.Addr, a.Value, a.Approx)
				}
			}
		}
	}
	for _, s := range sims {
		if instructions > s.insts {
			s.Tick(instructions - s.insts)
		}
	}
	return nil
}
