package experiments

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lva/internal/memsim"
	"lva/internal/obs/prov"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// The trace store is the record-once half of the grid replay pipeline.
// §IV's annotation rules make the precise (PC, addr, value) stream of a
// kernel a function of (workload, seed) alone, so the store records each
// distinct annotated stream exactly once — through the same runcache
// singleflight the figure drivers already share — and every later counter
// row is served by replaying (or just footer-reading) the recording
// instead of re-executing kernel arithmetic.
//
// Two stream kinds exist per (workload, seed):
//
//   - "precise": the AttachNone stream. Config-invariant, so it can be
//     replayed under any LVP or prefetch configuration (neither ever
//     hands an approximate value back to the kernel) and under any LVA
//     configuration on feedback-free kernels.
//   - "lvabase": the stream of the Table II baseline LVA run. Only used
//     to serve the baseline design point itself (via its recorded
//     counters), which Table 1, Figure 12 and the GHB-0 rows all share.
//
// Files use the LVAG chunked encoding (internal/trace); the recording
// run's full memsim.Result rides in the footer as JSON, so serving a
// previously-recorded design point costs one footer read and no decode.

// TraceStats is a snapshot of the grid-trace store counters.
type TraceStats struct {
	// Recordings counts annotated streams captured from kernel execution
	// (each distinct (kind, workload, seed) records at most once per
	// process; a warm on-disk store records zero).
	Recordings uint64
	// Recaptures counts the stream captures that took a second kernel
	// execution because another call had already filled the point's
	// run-cache cell, so the capture could not ride that simulation: a
	// recording after a plain Run* call or a phase-2 capture (such
	// recordings are also in Recordings), and a phase-2 capture after a
	// Run* call or a recording (capturePrecise). A recapture is not a
	// run-cache simulation and publishes no simulator events, so neither
	// depends on which figure reached the point first.
	Recaptures uint64
	// HeaderHits counts design points served straight from a recorded
	// stream's footer counters, with no simulation at all.
	HeaderHits uint64
	// ReplayPasses counts trace decode passes; one pass drives every
	// design point of a replay group through per-point simulators.
	ReplayPasses uint64
	// ReplayPoints counts design points simulated by replay.
	ReplayPoints uint64
	// ReplayHits counts replay-route design points served from the
	// in-process replay memo: an earlier pass already simulated the
	// identical point, so the batch pays neither a decode nor a simulation.
	ReplayHits uint64
	// ExecPoints counts counter-figure design points that re-executed the
	// kernel while replay was enabled (feedback kernels off the baseline,
	// or a store failure).
	ExecPoints uint64
}

var traceStats struct {
	recordings   atomic.Uint64
	recaptures   atomic.Uint64
	headerHits   atomic.Uint64
	replayPasses atomic.Uint64
	replayPoints atomic.Uint64
	replayHits   atomic.Uint64
	execPoints   atomic.Uint64
}

// TraceCounters returns a snapshot of the trace-store counters.
func TraceCounters() TraceStats {
	return TraceStats{
		Recordings:   traceStats.recordings.Load(),
		Recaptures:   traceStats.recaptures.Load(),
		HeaderHits:   traceStats.headerHits.Load(),
		ReplayPasses: traceStats.replayPasses.Load(),
		ReplayPoints: traceStats.replayPoints.Load(),
		ReplayHits:   traceStats.replayHits.Load(),
		ExecPoints:   traceStats.execPoints.Load(),
	}
}

var replayOff atomic.Bool

// SetReplayEnabled toggles the record/replay pipeline. Disabled, every
// counter figure executes its design points exactly as before the trace
// store existed. Replay starts enabled but is also implicitly off while
// the run cache is disabled (bypassing memoization promises one kernel
// execution per Run* call, which replay would violate).
func SetReplayEnabled(on bool) { replayOff.Store(!on) }

func replayEnabled() bool { return !replayOff.Load() && !runCacheOff.Load() }

// Trace directory resolution: an explicit SetTraceDir wins, then the
// LVA_TRACE_DIR environment variable (a persistent store reused across
// processes), then a lazily-created per-process temp directory.
var traceDirState struct {
	mu       sync.Mutex
	explicit string
	lazy     string
}

// SetTraceDir routes grid recordings to dir (created if needed) until the
// next call; the empty string restores the default resolution. Recordings
// found in the directory are trusted and served without re-simulating, so
// pointing successive processes at one directory makes every counter
// figure warm-start.
func SetTraceDir(dir string) {
	traceDirState.mu.Lock()
	traceDirState.explicit = dir
	traceDirState.mu.Unlock()
}

func traceDir() (string, error) {
	traceDirState.mu.Lock()
	defer traceDirState.mu.Unlock()
	if d := traceDirState.explicit; d != "" {
		return d, os.MkdirAll(d, 0o755)
	}
	if d := os.Getenv("LVA_TRACE_DIR"); d != "" {
		return d, os.MkdirAll(d, 0o755)
	}
	if traceDirState.lazy == "" {
		d, err := os.MkdirTemp("", "lva-grid-")
		if err != nil {
			return "", err
		}
		traceDirState.lazy = d
	}
	return traceDirState.lazy, nil
}

// resetTraceStore forgets (only) the lazy per-process directory —
// deleting it, since its recordings would otherwise defeat the
// process-cold semantics ResetRunCache promises — and zeroes the store
// counters. An explicit or LVA_TRACE_DIR directory survives: those are
// opted-in persistent stores.
func resetTraceStore() {
	traceDirState.mu.Lock()
	if traceDirState.lazy != "" {
		os.RemoveAll(traceDirState.lazy)
		traceDirState.lazy = ""
	}
	traceDirState.mu.Unlock()
	traceStats.recordings.Store(0)
	traceStats.recaptures.Store(0)
	traceStats.headerHits.Store(0)
	traceStats.replayPasses.Store(0)
	traceStats.replayPoints.Store(0)
	traceStats.replayHits.Store(0)
	traceStats.execPoints.Store(0)
}

// Stream kinds.
const (
	streamPrecise = "precise"
	streamLVABase = "lvabase"
)

// gridStream is a recorded stream's memo value. res always holds the
// recording run's phase-1 counters; path is empty when no readable
// recording exists (replay consumers must then fall back to execution).
type gridStream struct {
	path string
	hdr  trace.GridHeader
	res  memsim.Result

	// Artifact identity for provenance records, hashed lazily at most
	// once per cell (see (*gridStream).artifact in provwire.go).
	artOnce sync.Once
	artHash string
	artSize int64
}

// streamKind names the recording dp is: the precise stream or the Table II
// LVA baseline's.
func streamKind(dp designPoint) string {
	if dp.mem.Attach == memsim.AttachNone {
		return streamPrecise
	}
	return streamLVABase
}

// ensureStream returns the recording of dp — precisePoint or the Table II
// LVA baseline point — recording it on first use. Resolution order: a
// readable on-disk recording named dp.hash() (footer only — no kernel
// work, no decode); else a kernel execution with the grid capture sink
// attached, run through the run-cache singleflight so it doubles as the
// memoized Run* result for that design point.
func ensureStream(dp designPoint) *gridStream {
	st, _ := memoOnce(memoStream, dp, func() *gridStream {
		st := new(gridStream)
		key := dp.key()
		pc := provBegin()
		why := provWhyColdRecord
		path := ""
		if dir, err := traceDir(); err == nil {
			path = filepath.Join(dir, dp.hash()+".lvag")
			hdr, res, rerr := readStreamHeader(path, key)
			if rerr == nil {
				st.path, st.hdr, st.res = path, hdr, res
				return st
			}
			if !errors.Is(rerr, fs.ErrNotExist) {
				// A file exists but its footer is unreadable (truncated
				// or corrupt persistent store): fall through and
				// re-record over it, and say so in the provenance.
				why = provWhyReRecord
			}
		}
		recorded := false
		r := cachedRun(dp, func() RunResult {
			rr, hdr, err := recordStream(dp, path)
			if err == nil && path != "" {
				recorded = true
				st.path, st.hdr = path, hdr
			}
			return rr
		})
		st.res = r.Sim
		if !recorded && path != "" && st.path == "" {
			// The run cell was already filled by a plain Run* call (an
			// error figure got to this design point first), so the
			// singleflight closure never ran. Capture directly: one extra
			// kernel execution, at most once per stream and process,
			// counted as a recapture (see TraceStats.Recaptures).
			if _, hdr, err := recordStream(dp, path); err == nil {
				st.path, st.hdr = path, hdr
				traceStats.recaptures.Add(1)
				recorded = true
			}
		}
		if recorded && pc.on() {
			kind := streamKind(dp)
			pc.point("tracestore", kind+"/"+dp.w.Name(), "store", prov.RouteExec,
				prov.CounterRecording, why, dp, st, provStagesRecord)
			pc.stage("record "+kind+"/"+dp.w.Name(), "s", key,
				map[string]any{"kind": kind, "workload": dp.w.Name(), "why": why})
		}
		return st
	})
	return st
}

// EnsureGridStream records (or, warm, just locates) the named stream kind
// — "precise" or "lvabase" — for (w, seed) and returns the path of its
// on-disk recording. It is the cmd/lvatrace record entry point; figures
// reaching the same (kind, workload, seed) later serve themselves from the
// recording without re-simulating.
func EnsureGridStream(kind string, w workloads.Workload, seed uint64) (string, error) {
	switch kind {
	case streamPrecise, streamLVABase:
	default:
		return "", fmt.Errorf("experiments: unknown stream kind %q (want %q or %q)", kind, streamPrecise, streamLVABase)
	}
	dp := precisePoint(w, seed)
	if kind == streamLVABase {
		dp = lvaPoint(w, BaselineFor(w), seed)
	}
	var st *gridStream
	gated("record/"+w.Name(), func() { st = ensureStream(dp) })
	if st.path == "" {
		return "", fmt.Errorf("experiments: recording %s stream of %s failed (no writable trace directory?)", kind, w.Name())
	}
	return st.path, nil
}

// recordStream executes dp's kernel with a grid writer attached and
// persists the stream at path as a recording keyed by dp.key(), with the
// run's memsim.Result in the footer (written to a temp file and renamed,
// so concurrent processes sharing LVA_TRACE_DIR never observe a partial
// file). The returned RunResult is always valid — a persistence failure
// only costs the recording, never the simulation.
func recordStream(dp designPoint, path string) (RunResult, trace.GridHeader, error) {
	var f *os.File
	err := errors.New("experiments: no trace directory")
	if path != "" {
		f, err = os.CreateTemp(filepath.Dir(path), ".lvag-*")
	}
	if err != nil {
		return runWith(dp, nil), trace.GridHeader{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	gw := trace.NewGridWriter(bw, dp.w.Name(), dp.key(), dp.seed)
	res := runWith(dp, gw)
	var hdr trace.GridHeader
	meta, err := json.Marshal(res.Sim)
	if err == nil {
		hdr, err = gw.Finish(res.Sim.Instructions, meta)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return res, trace.GridHeader{}, err
	}
	traceStats.recordings.Add(1)
	return res, hdr, nil
}

// readStreamHeader loads a recording's footer and the memsim.Result it
// carries, verifying the file really is the stream keyed by key.
func readStreamHeader(path, key string) (trace.GridHeader, memsim.Result, error) {
	var res memsim.Result
	f, err := os.Open(path)
	if err != nil {
		return trace.GridHeader{}, res, err
	}
	defer f.Close()
	hdr, err := trace.ReadGridFooter(f)
	if err != nil {
		return trace.GridHeader{}, res, err
	}
	if hdr.Key != key {
		return trace.GridHeader{}, res, fmt.Errorf("experiments: stream %s keyed %q, want %q", path, hdr.Key, key)
	}
	if err := json.Unmarshal(hdr.Meta, &res); err != nil {
		return trace.GridHeader{}, res, err
	}
	return hdr, res, nil
}
