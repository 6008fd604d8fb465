// Package lva is the public API of this reproduction of "Load Value
// Approximation" (San Miguel, Badr, Enright Jerger — MICRO 2014).
//
// Load value approximation (LVA) is a microarchitectural technique: when a
// load to approximation-tolerant data misses in the L1 cache, a hardware
// approximator generates an estimated value from the load's value history
// and the processor continues immediately — no speculation, no rollback.
// Because the fetched block is only needed to train the approximator, the
// fetch itself becomes optional; skipping it (the "approximation degree")
// trades output error for memory-hierarchy energy.
//
// The package re-exports the building blocks:
//
//   - Approximator (core): the GHB + approximator-table design of the
//     paper's Figure 3, including relaxed confidence windows and the
//     approximation degree, plus the idealized LVP baseline.
//   - Simulator (memsim): the phase-1, Pin-like execution-driven
//     memory-hierarchy model that workloads issue loads/stores through.
//   - System (fullsys): the phase-2 cycle-approximate 4-core model with a
//     mesh NoC, MSI-coherent distributed L2 and an energy model.
//   - Workloads: seven PARSEC-stand-in kernels with the paper's
//     per-benchmark output-error metrics.
//   - Experiments: one driver per table/figure of the paper's evaluation.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	cfg := lva.DefaultSimConfig()          // 64 KB L1 + Table II approximator
//	sim := lva.NewSimulator(cfg)
//	v := sim.LoadFloat(pc, addr, precise, true /* approximate */)
//	// ... run your kernel, then:
//	res := sim.Result()
//	fmt.Println(res.EffectiveMPKI(), res.Coverage())
package lva

import (
	"io"

	"lva/internal/core"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/isa"
	"lva/internal/memsim"
	"lva/internal/obs"
	"lva/internal/obs/attr"
	"lva/internal/obs/phase"
	"lva/internal/obs/prov"
	"lva/internal/prefetch"
	"lva/internal/value"
	"lva/internal/workloads"
)

// Approximator is the load value approximator (paper Figure 3).
type Approximator = core.Approximator

// ApproximatorConfig configures an Approximator (paper Table II).
type ApproximatorConfig = core.Config

// Decision is the approximator's response to a cache miss.
type Decision = core.Decision

// Value is a 64-bit datum tagged as integer or floating point.
type Value = value.Value

// NewApproximator builds an approximator from a configuration.
func NewApproximator(cfg ApproximatorConfig) *Approximator { return core.New(cfg) }

// DefaultApproximatorConfig returns the paper's Table II baseline.
func DefaultApproximatorConfig() ApproximatorConfig { return core.DefaultConfig() }

// FloatValue packs a float64 for the approximator.
func FloatValue(f float64) Value { return value.FromFloat(f) }

// IntValue packs an int64 for the approximator.
func IntValue(i int64) Value { return value.FromInt(i) }

// Approximation modes.
const (
	// ModeLVA is load value approximation (no rollbacks).
	ModeLVA = core.ModeLVA
	// ModeLVP is the idealized load-value-prediction baseline.
	ModeLVP = core.ModeLVP
)

// Simulator is the phase-1 execution-driven memory-hierarchy simulator.
type Simulator = memsim.Simulator

// Memory is the interface workloads use for every simulated access.
type Memory = memsim.Memory

// SimConfig assembles a phase-1 simulation.
type SimConfig = memsim.Config

// SimResult carries phase-1 metrics (MPKI, coverage, fetches).
type SimResult = memsim.Result

// NewSimulator builds a phase-1 simulator.
func NewSimulator(cfg SimConfig) *Simulator { return memsim.New(cfg) }

// DefaultSimConfig returns the paper's phase-1 setup: a 64 KB 8-way L1
// with the baseline approximator attached.
func DefaultSimConfig() SimConfig { return memsim.DefaultConfig() }

// Attachment selects what augments the simulated L1.
type Attachment = memsim.Attachment

// L1 attachments.
const (
	// AttachNone runs precisely.
	AttachNone = memsim.AttachNone
	// AttachLVA attaches the load value approximator.
	AttachLVA = memsim.AttachLVA
	// AttachLVP attaches the idealized load value predictor.
	AttachLVP = memsim.AttachLVP
	// AttachPrefetch attaches the GHB prefetcher baseline.
	AttachPrefetch = memsim.AttachPrefetch
)

// PrefetcherConfig configures the GHB prefetcher baseline (§VI-D).
type PrefetcherConfig = prefetch.Config

// System is the phase-2 cycle-approximate full-system simulator.
type System = fullsys.Sim

// SystemConfig configures the full system (paper Table II).
type SystemConfig = fullsys.Config

// SystemResult carries phase-2 metrics (cycles, traffic, energy).
type SystemResult = fullsys.Result

// NewSystem builds a full-system simulator.
func NewSystem(cfg SystemConfig) *System { return fullsys.New(cfg) }

// DefaultSystemConfig returns the paper's Table II full-system setup.
func DefaultSystemConfig() SystemConfig { return fullsys.DefaultConfig() }

// Workload is one of the seven benchmark kernels.
type Workload = workloads.Workload

// WorkloadOutput is a kernel's final output with the paper's error metric.
type WorkloadOutput = workloads.Output

// Workloads returns the seven kernels with calibrated defaults.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName looks up a kernel by its PARSEC name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Workload constructors and output types, re-exported so applications can
// run individual kernels and inspect their typed outputs.
type (
	// BlackscholesOutput is the option-price list (error: % of prices off by >1%).
	BlackscholesOutput = workloads.BlackscholesOutput
	// BodytrackOutput is the tracked trajectory (error: mean deviation).
	BodytrackOutput = workloads.BodytrackOutput
	// CannealOutput is the final routing cost (error: relative difference).
	CannealOutput = workloads.CannealOutput
	// FerretOutput is the per-query result sets (error: 1 - recall).
	FerretOutput = workloads.FerretOutput
	// FluidanimateOutput is the final cell per particle (error: % displaced).
	FluidanimateOutput = workloads.FluidanimateOutput
	// SwaptionsOutput is the swaption price list (error: mean relative).
	SwaptionsOutput = workloads.SwaptionsOutput
	// X264Output is the encoder PSNR and bit cost (error: weighted change).
	X264Output = workloads.X264Output
	// Vec2 is a 2-D position estimate in BodytrackOutput trajectories.
	Vec2 = workloads.Vec2
)

// NewBlackscholes returns the blackscholes kernel with calibrated defaults.
func NewBlackscholes() *workloads.Blackscholes { return workloads.NewBlackscholes() }

// NewBodytrack returns the bodytrack kernel with calibrated defaults.
func NewBodytrack() *workloads.Bodytrack { return workloads.NewBodytrack() }

// NewCanneal returns the canneal kernel with calibrated defaults.
func NewCanneal() *workloads.Canneal { return workloads.NewCanneal() }

// NewFerret returns the ferret kernel with calibrated defaults.
func NewFerret() *workloads.Ferret { return workloads.NewFerret() }

// NewFluidanimate returns the fluidanimate kernel with calibrated defaults.
func NewFluidanimate() *workloads.Fluidanimate { return workloads.NewFluidanimate() }

// NewSwaptions returns the swaptions kernel with calibrated defaults.
func NewSwaptions() *workloads.Swaptions { return workloads.NewSwaptions() }

// NewX264 returns the x264 kernel with calibrated defaults.
func NewX264() *workloads.X264 { return workloads.NewX264() }

// Figure is the structured result of one reproduced table/figure.
type Figure = experiments.Figure

// Experiments maps experiment ids (table1, fig1, fig4..fig13) to drivers.
func Experiments() map[string]func() *Figure { return experiments.Registry }

// RunExperiment runs one experiment by id (e.g. "fig4").
func RunExperiment(id string) (*Figure, bool) {
	d, ok := experiments.Registry[id]
	if !ok {
		return nil, false
	}
	return d(), true
}

// RunAll regenerates the named experiments ("all" of them when ids is
// empty) concurrently through the shared run cache: every driver admits
// its simulation points through one Parallelism-bounded gate and each
// distinct design point is simulated exactly once per process.
func RunAll(ids ...string) ([]*Figure, error) { return experiments.RunAll(ids...) }

// RunCacheStats is a snapshot of the process-wide run-cache counters.
type RunCacheStats = experiments.RunCacheStats

// RunCacheCounters reports how many simulations the run cache executed and
// how many Run* calls it satisfied from memory.
func RunCacheCounters() RunCacheStats { return experiments.RunCacheCounters() }

// ResetRunCache drops every memoized simulation result and zeroes the
// counters, restoring process-cold behaviour (for tests and benchmarks).
func ResetRunCache() { experiments.ResetRunCache() }

// TraceStats is a snapshot of the grid-trace store counters: streams
// recorded, design points served from recorded footers, replay passes and
// points, and counter points that still executed the kernel.
type TraceStats = experiments.TraceStats

// TraceCounters reports how the record-once trace store served the counter
// figures' design points.
func TraceCounters() TraceStats { return experiments.TraceCounters() }

// SetReplayEnabled toggles the record-once/replay-many grid pipeline for
// counter figures. Enabled by default; disabled, every design point
// executes its kernel exactly as before the trace store existed.
func SetReplayEnabled(on bool) { experiments.SetReplayEnabled(on) }

// SetTraceDir routes grid-stream recordings to dir until the next call
// (empty restores the default per-process temp directory). Recordings
// found there are trusted and served without re-simulating, so pointing
// successive processes at one directory — or setting LVA_TRACE_DIR —
// makes every counter figure warm-start.
func SetTraceDir(dir string) { experiments.SetTraceDir(dir) }

// MetricsSnapshot is a frozen, name-sorted view of the observability
// registry (see internal/obs).
type MetricsSnapshot = obs.Snapshot

// SetMetricsEnabled toggles hot-path metric collection (per-miss counters
// in the simulator, per-training error histograms in the approximator).
// Call it before constructing simulators or running experiments; the
// engine's coarse per-run metrics are always collected. Off by default so
// the simulator hot paths carry zero instrumentation cost.
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// Metrics snapshots the process-wide observability registry.
// includeVolatile also captures wall-clock timing histograms, whose values
// change run to run; leave it false for byte-stable output.
func Metrics(includeVolatile bool) MetricsSnapshot {
	return obs.Default().Snapshot(includeVolatile)
}

// AttributionSnapshot is a frozen view of the approximation flight
// recorder: per-PC error attribution and per-epoch time-series for every
// approximate run published since the last reset (see internal/obs/attr).
type AttributionSnapshot = attr.Snapshot

// SetAttributionEnabled toggles the approximation flight recorder. When
// on, every approximate/LVP/prefetch run records per-site (per-PC) load,
// miss, coverage and training-error counters plus an epoch time-series,
// published under a deterministic scope per design point. Call it before
// running experiments; off by default so annotated-load paths stay
// allocation-free.
func SetAttributionEnabled(on bool) { attr.SetEnabled(on) }

// SetAttributionEpochWindow sets how many annotated loads make one
// time-series epoch (n <= 0 disables the time-series, keeping per-site
// attribution only). Takes effect for recorders created afterwards.
func SetAttributionEpochWindow(n int) { attr.SetEpochWindow(n) }

// Attribution snapshots every published run attribution, sorted by scope.
func Attribution() AttributionSnapshot { return attr.TakeSnapshot() }

// ResetAttribution drops every published run attribution.
func ResetAttribution() { attr.Reset() }

// PhaseSnapshot is a frozen view of the phase observatory: per-run epoch
// fingerprints clustered into phases, with a representativeness
// projection per design point (see internal/obs/phase).
type PhaseSnapshot = phase.Snapshot

// SetPhaseProfilingEnabled toggles the phase observatory. When on, every
// simulated run fingerprints its annotated-load stream per epoch (PC
// sketch, address regions, stride histogram, miss/error rates), clusters
// the epochs into phases at snapshot time, and reports how well the phase
// medoid intervals alone reconstruct the whole-run counters. Call it
// before running experiments; off by default so annotated-load paths
// stay allocation-free.
func SetPhaseProfilingEnabled(on bool) { phase.SetEnabled(on) }

// SetPhaseEpochWindow sets how many annotated loads make one phase epoch
// (n < 0 disables epoching, 0 restores the default). Takes effect for
// profilers created afterwards.
func SetPhaseEpochWindow(n int) { phase.SetEpochWindow(n) }

// Phases snapshots every published phase profile, sorted by scope.
func Phases() PhaseSnapshot { return phase.TakeSnapshot() }

// ResetPhases drops every published phase profile.
func ResetPhases() { phase.Reset() }

// ProfilePhasesOfStream phase-profiles a recorded .lvag grid stream in
// one decode pass with no simulation, publishing (and returning) the
// resulting profile. Offline profiles cluster on access-vector shape
// alone; they carry no miss/error projection.
func ProfilePhasesOfStream(path string) (phase.ScopeProfile, error) {
	prof, _, err := experiments.ProfileGridStream(path)
	return prof, err
}

// ProvenanceManifest is a parsed run-provenance manifest (see
// internal/obs/prov): per-evaluation records of which route produced each
// design-point result and why, reconciled against the engine counters.
type ProvenanceManifest = prov.Manifest

// EnableProvenance starts recording run provenance: every design-point
// evaluation (run-cache lookup, footer read, grid replay, kernel
// execution, phase-2 stream) emits a deterministic record of its route,
// justification and source artifact. Call before the first run; off by
// default with a zero-cost disabled path.
func EnableProvenance() { experiments.EnableProvenance() }

// DisableProvenance ends the provenance session.
func DisableProvenance() { experiments.DisableProvenance() }

// WriteProvenanceManifest renders the active provenance ledger as a
// byte-stable NDJSON manifest reconciled against the engine counters
// (the `lvaexp -manifest` document; audit it with `lvareport
// -provenance`).
func WriteProvenanceManifest(w io.Writer) error { return experiments.WriteProvManifest(w) }

// ReadProvenanceManifest parses an NDJSON provenance manifest; call
// Validate on the result to reconcile it.
func ReadProvenanceManifest(r io.Reader) (*ProvenanceManifest, error) {
	return prov.ReadManifest(r)
}

// StartTimeline begins capturing a Chrome trace-event run timeline of the
// experiment engine (figure drivers, gate workers, kernel simulations and
// run-cache hits). Render the TimelineJSON output at ui.perfetto.dev.
func StartTimeline() { experiments.StartTimeline() }

// TimelineJSON returns the events captured so far as Chrome trace-event
// JSON; it errors when no capture is running.
func TimelineJSON() ([]byte, error) { return experiments.TimelineJSON() }

// StopTimeline ends the timeline capture session.
func StopTimeline() { experiments.StopTimeline() }

// RunFullSystem records a workload's precise 4-thread access stream in
// memory and replays it through the phase-2 full-system model under cfg.
func RunFullSystem(w Workload, seed uint64, cfg SystemConfig) (SystemResult, error) {
	return experiments.RunFullSystem(w, seed, cfg)
}

// Program is an assembled approximate-ISA program (§IV: ISA extensions
// mark loads as approximate via ld.a / fld.a).
type Program = isa.Program

// VM executes an approximate-ISA program against a simulated hierarchy.
type VM = isa.VM

// Assemble parses approximate-ISA assembly text.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// NewVM binds an assembled program to a simulated memory hierarchy.
func NewVM(p *Program, mem Memory) *VM { return isa.NewVM(p, mem) }

// SweepSpec describes a phase-1 design-space exploration (see cmd/lvadesign).
type SweepSpec = experiments.SweepSpec

// SweepPoint is one design point's measured results.
type SweepPoint = experiments.SweepPoint

// RunSweep executes a cartesian design-space exploration.
func RunSweep(spec SweepSpec, progress func(done, total int)) ([]SweepPoint, error) {
	return experiments.RunSweep(spec, progress)
}
