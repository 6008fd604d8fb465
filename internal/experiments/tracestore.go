package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lva/internal/memsim"
	"lva/internal/obs/attr"
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

// resetTraceStore forgets every ensured stream and (only) the lazy
// per-process directory — deleting it, since its recordings would
// otherwise defeat the process-cold semantics ResetRunCache promises.
// An explicit or LVA_TRACE_DIR directory survives: those are opted-in
// persistent stores.
func resetTraceStore() {
	recCells.Range(func(k, _ any) bool {
		recCells.Delete(k)
		return true
	})
	replayCells.Range(func(k, _ any) bool {
		replayCells.Delete(k)
		return true
	})
	traceDirState.mu.Lock()
	if traceDirState.lazy != "" {
		os.RemoveAll(traceDirState.lazy)
		traceDirState.lazy = ""
	}
	traceDirState.mu.Unlock()
	traceStats.recordings.Store(0)
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

// gridStream is the once-cell of one recorded stream. res always holds
// the recording run's phase-1 counters; path is empty when no readable
// recording exists (replay consumers must then fall back to execution).
type gridStream struct {
	once sync.Once
	path string
	hdr  trace.GridHeader
	res  memsim.Result

	// Artifact identity for provenance records, hashed lazily at most
	// once per cell (see (*gridStream).artifact in provwire.go).
	artOnce sync.Once
	artHash string
	artSize int64
}

var recCells sync.Map // kind + "|" + runKey -> *gridStream

// replayCells memoizes replay-simulated counter results by design-point
// identity, so regenerating a figure twice in one process costs zero decode
// passes the second time. Deliberately separate from runCells: a replayed
// point has no kernel Output, which every runCell promises its callers.
var replayCells sync.Map // runKey("replay", ...) -> memsim.Result

// streamSpec maps a stream kind to the run-cache identity and simulator
// configuration of its recording run. The keys are exactly RunPrecise's
// and RunLVA's, so a recording and a plain Run* call share one runCell —
// whichever happens first, the kernel executes once.
func streamSpec(kind string, w workloads.Workload, seed uint64) (key, label string, precise bool, cfg memsim.Config) {
	cfg = memsim.DefaultConfig()
	switch kind {
	case streamPrecise:
		cfg.Attach = memsim.AttachNone
		return runKey("precise", w, "", seed), "precise/" + w.Name(), true, cfg
	case streamLVABase:
		cfg.Attach = memsim.AttachLVA
		cfg.Approx = BaselineFor(w)
		return runKey("lva", w, fmt.Sprintf("%#v", cfg.Approx), seed), "lva/" + w.Name(), false, cfg
	}
	panic("experiments: unknown stream kind " + kind)
}

// streamFile names a stream on disk by the hash of its run-cache key.
func streamFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8]) + ".lvag"
}

// ensureStream returns the stream cell for (kind, w, seed), recording it
// on first use. Resolution order: a readable on-disk recording (footer
// only — no kernel work, no decode); else a kernel execution with the
// grid capture sink attached, run through the run-cache singleflight so
// it doubles as the memoized Run* result for that design point.
func ensureStream(kind string, w workloads.Workload, seed uint64) *gridStream {
	key, label, precise, cfg := streamSpec(kind, w, seed)
	c, _ := recCells.LoadOrStore(kind+"|"+key, &gridStream{})
	cell := c.(*gridStream)
	cell.once.Do(func() {
		pc := provBegin(0)
		why := provWhyColdRecord
		path := ""
		if dir, err := traceDir(); err == nil {
			path = filepath.Join(dir, streamFile(key))
			hdr, res, rerr := readStreamHeader(path, key)
			if rerr == nil {
				cell.path, cell.hdr, cell.res = path, hdr, res
				return
			}
			if !errors.Is(rerr, fs.ErrNotExist) {
				// A file exists but its footer is unreadable (truncated
				// or corrupt persistent store): fall through and
				// re-record over it, and say so in the provenance.
				why = provWhyReRecord
			}
		}
		recorded := false
		r := cachedRun(key, label, precise, func() RunResult {
			rr, hdr, err := recordStream(w, cfg, seed, key, path)
			if err == nil && path != "" {
				recorded = true
				cell.path, cell.hdr = path, hdr
			}
			return rr
		})
		cell.res = r.Sim
		if !recorded && path != "" && cell.path == "" {
			// The runCell was already filled by a plain Run* call (an
			// error figure got to this design point first), so the
			// singleflight closure never ran. Capture directly: one extra
			// kernel execution, at most once per stream and process.
			if _, hdr, err := recordStream(w, cfg, seed, key, path); err == nil {
				cell.path, cell.hdr = path, hdr
				eng().cacheSims.Inc()
				recorded = true
			}
		}
		if recorded && pc.on() {
			pc.point("tracestore", kind+"/"+w.Name(), "store", prov.RouteExec,
				prov.CounterRecording, why, key, cell, provStagesRecord, "")
			pc.stage("record "+kind+"/"+w.Name(), "s", key,
				map[string]any{"kind": kind, "workload": w.Name(), "why": why})
		}
	})
	return cell
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
	var st *gridStream
	gated("record/"+w.Name(), func() { st = ensureStream(kind, w, seed) })
	if st.path == "" {
		return "", fmt.Errorf("experiments: recording %s stream of %s failed (no writable trace directory?)", kind, w.Name())
	}
	return st.path, nil
}

// recordStream executes the kernel with the grid capture sink attached
// and persists the stream at path (written to a temp file and renamed,
// so concurrent processes sharing LVA_TRACE_DIR never observe a partial
// file). The returned RunResult is always valid — a persistence failure
// only costs the recording, never the simulation.
func recordStream(w workloads.Workload, cfg memsim.Config, seed uint64, key, path string) (RunResult, trace.GridHeader, error) {
	var f *os.File
	err := errors.New("experiments: no trace directory")
	if path != "" {
		f, err = os.CreateTemp(filepath.Dir(path), ".lvag-*")
	}
	if err != nil {
		res, _, _ := writeStream(w, cfg, seed, key, nil)
		return res, trace.GridHeader{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	res, hdr, err := writeStream(w, cfg, seed, key, bw)
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

// writeStream executes the kernel and, when dst is non-nil, streams its
// annotated accesses into dst as a grid recording keyed by key, with the
// run's memsim.Result in the footer. The RunResult is valid whatever the
// error says: a failed write only costs the recording.
func writeStream(w workloads.Workload, cfg memsim.Config, seed uint64, key string, dst io.Writer) (RunResult, trace.GridHeader, error) {
	sim := memsim.New(cfg)
	var gw *trace.GridWriter
	if dst != nil {
		gw = trace.NewGridWriter(dst, w.Name(), key, seed)
		sim.SetGridCapture(gw)
	}
	rec := attrRecorder(w, cfg, seed)
	if rec != nil {
		sim.SetAttribution(rec)
	}
	pp := phaseProfiler(w, cfg, seed)
	var ppStart time.Time
	if pp != nil {
		sim.SetPhaseProfile(pp)
		ppStart = time.Now()
	}
	out := w.Run(sim, seed)
	res := RunResult{Output: out, Sim: sim.Result()}
	if rec != nil {
		attr.Publish(rec)
	}
	if pp != nil {
		publishPhaseProfile(pp, ppStart)
	}
	if gw == nil {
		return res, trace.GridHeader{}, nil
	}
	meta, err := json.Marshal(res.Sim)
	if err != nil {
		return res, trace.GridHeader{}, err
	}
	hdr, err := gw.Finish(res.Sim.Instructions, meta)
	return res, hdr, err
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
