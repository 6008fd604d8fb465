package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"lva/internal/obs/prov"
)

// Provenance wiring: every engine path that produces a design-point
// result (counter scheduler, direct Run* tasks, sweep points, stream
// recordings, phase-2 runs) reports to the prov ledger through the
// helpers here. The contract mirrors the timeline seam: provBegin does
// one atomic load, and with no active ledger nothing below it reads the
// clock, builds a string, or allocates — pinned by TestProvOffIsFree.

// GoldenCodeVersion stamps run bundles with the generation of
// figure-producing code that minted them. Bump it whenever
// testdata/figure_hashes.json is regenerated: a bundle carrying another
// stamp was produced by code whose figures may differ.
const GoldenCodeVersion = "figures-2026-08-pr8"

// provCounters assembles the deterministic engine counters the manifest
// reconciles against: the trace-store accounting plus the run-cache
// lookup count.
func provCounters() prov.Counters {
	t := TraceCounters()
	return prov.Counters{
		Recordings:      t.Recordings,
		FooterPoints:    t.HeaderHits,
		ReplayedPoints:  t.ReplayPoints + t.ReplayHits,
		ExecPoints:      t.ExecPoints,
		RunCacheLookups: eng().cacheLookups.Value(),
	}
}

// provFlowID names the Perfetto flow that links a recording span to the
// spans that later consume the stream.
func provFlowID(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Route justifications. Constants so identical records aggregate and the
// manifest stays byte-stable.
const (
	provWhyColdRecord   = "no recording on disk; captured annotated stream"
	provWhyReRecord     = "existing recording unreadable; re-recorded"
	provWhyPrecise      = "design point is the precise recording run"
	provWhyBaseline     = "config equals Table II baseline; counters ride the recorded footer"
	provWhyFeedbackFree = "FeedbackFree=true: annotated loads never observe approximator output"
	provWhyFeedback     = "LVA attachment on feedback kernel; values depend on approximator state"
	provWhyLVP          = "LVP never hands predicted values to the kernel"
	provWhyPrefetch     = "prefetcher never alters load values"
	provWhyNoStream     = "no recording available; executed"
	provWhyReplayFail   = "replay failed; executed"
	provWhyReplayOff    = "replay disabled; executed through the run cache"
	provWhyOutputRow    = "output-error row: kernel arithmetic required"
	provWhySweepExec    = "sweep point needs output error; executed"
	provWhyCapture      = "phase-2 model runs the precise stream captured in memory"
)

// Span stage paths, shared so records allocate no per-emit slices.
var (
	provStagesFooter    = []string{"schedule", "tracestore", "footer", "figure-append"}
	provStagesReplay    = []string{"schedule", "tracestore", "replay", "figure-append"}
	provStagesCtrExec   = []string{"schedule", "tracestore", "exec", "figure-append"}
	provStagesRunExec   = []string{"schedule", "runcache", "exec", "figure-append"}
	provStagesRecord    = []string{"schedule", "runcache", "capture-stream"}
	provStagesSweepExec = []string{"schedule", "runcache", "exec", "sweep-append"}
)

// provCtx anchors one serving stage: the active ledger (nil = off) plus
// the stage's wall-clock start, where its timeline span begins. provBegin
// is the single seam load; when it returns an off context every later
// method is a nil check and nothing else.
type provCtx struct {
	l     *prov.Ledger
	start time.Time
}

func provBegin() provCtx {
	l := prov.Active()
	if l == nil {
		return provCtx{}
	}
	return provCtx{l: l, start: time.Now()}
}

func (p provCtx) on() bool { return p.l != nil }

// point emits the provenance record of one evaluation of dp, fingerprinted
// by dp.hash(). st supplies the consumed (or produced) artifact identity.
func (p provCtx) point(fig, label, sched string, route prov.Route, counter, why string, dp designPoint,
	st *gridStream, stages []string) {
	if p.l == nil {
		return
	}
	rec := prov.Record{
		Figure:        fig,
		Label:         label,
		Scheduler:     sched,
		Route:         route,
		Counter:       counter,
		Fingerprint:   dp.hash(),
		Justification: why,
		Stages:        stages,
	}
	if st != nil {
		rec.Artifact, rec.ArtifactSHA256, rec.ArtifactBytes = st.artifact()
	}
	p.l.Emit(rec)
}

// stage closes the pid-4 timeline span of one serving stage. flowPh/"s"
// opens a flow arrow (recording spans), "f" lands one (consuming spans);
// flowKey is the stream cache key both ends hash into the flow id.
func (p provCtx) stage(name, flowPh, flowKey string, args map[string]any) {
	if p.l == nil {
		return
	}
	tl := timeline.Load()
	if tl == nil {
		return
	}
	tid := tl.nextProvTid()
	tl.span(tlPidProv, tid, name, "prov", p.start, args)
	if flowKey != "" {
		tl.flow(flowPh, provFlowID(flowKey), tlPidProv, tid, p.start)
	}
}

// artifact identifies the on-disk recording behind a stream cell: file
// basename (directory-independent), a SHA-256 prefix of the file bytes,
// and its size. The hash is computed at most once per cell and process;
// the LVAG encoding is deterministic, so the triple is a function of
// (workload, seed) alone and safe for the byte-stable manifest.
func (st *gridStream) artifact() (name, sum string, size int64) {
	if st == nil || st.path == "" {
		return "", "", 0
	}
	st.artOnce.Do(func() {
		f, err := os.Open(st.path)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		n, err := io.Copy(h, f)
		if err != nil {
			return
		}
		st.artHash = hex.EncodeToString(h.Sum(nil)[:8])
		st.artSize = n
	})
	if st.artHash == "" {
		return "", "", 0
	}
	return filepath.Base(st.path), st.artHash, st.artSize
}
