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
//   - RunFullSystem (fullsys): the phase-2 cycle-approximate 4-core model
//     with a mesh NoC, MSI-coherent distributed L2 and an energy model.
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
	"lva/internal/core"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/isa"
	"lva/internal/memsim"
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

// SystemConfig configures the full system (paper Table II).
type SystemConfig = fullsys.Config

// SystemResult carries phase-2 metrics (cycles, traffic, energy).
type SystemResult = fullsys.Result

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

// NewSwaptions returns the swaptions kernel with calibrated defaults.
func NewSwaptions() *workloads.Swaptions { return workloads.NewSwaptions() }

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

// MetricsSnapshot is a frozen, name-sorted view of the experiment
// engine's metrics.
type MetricsSnapshot = experiments.MetricsSnapshot

// Metrics snapshots the experiment engine's metrics. includeVolatile also
// captures wall-clock timing histograms, whose values change run to run;
// leave it false for byte-stable output.
func Metrics(includeVolatile bool) MetricsSnapshot {
	return experiments.Metrics(includeVolatile)
}

// RunFullSystem captures a workload's precise 4-thread access stream in
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
