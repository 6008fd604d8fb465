// Package experiments contains one driver per table/figure of the paper's
// evaluation (§VI), plus the shared harness that runs a workload kernel
// under a given memory-hierarchy configuration and measures MPKI, fetches
// and final output error exactly as the paper's two-phase methodology does.
package experiments

import (
	"fmt"

	"lva/internal/core"
	"lva/internal/memsim"
	"lva/internal/obs/attr"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// DefaultSeed makes every experiment deterministic end-to-end.
const DefaultSeed uint64 = 42

// RunResult bundles one simulated execution of a kernel.
type RunResult struct {
	Output workloads.Output
	Sim    memsim.Result
}

// RunPrecise executes the kernel with no approximation attached: the
// baseline against which MPKI is normalized and output error measured.
// Like all Run* entry points it is memoized in the process-wide run cache.
func RunPrecise(w workloads.Workload, seed uint64) RunResult {
	return simulate(precisePoint(w, seed))
}

// RunLVA executes the kernel with a load value approximator built from
// coreCfg attached to the L1.
func RunLVA(w workloads.Workload, coreCfg core.Config, seed uint64) RunResult {
	return simulate(lvaPoint(w, coreCfg, seed))
}

// RunLVP executes the kernel with the idealized load value predictor
// baseline (exact-match coverage, always fetch).
func RunLVP(w workloads.Workload, coreCfg core.Config, seed uint64) RunResult {
	return simulate(lvpPoint(w, coreCfg, seed))
}

// RunPrefetch executes the kernel with the GHB prefetcher at the given
// degree (applied to all data, as in the paper).
func RunPrefetch(w workloads.Workload, degree int, seed uint64) RunResult {
	return simulate(prefetchPoint(w, degree, seed))
}

// simulate returns dp's memoized phase-1 run, executing the kernel at most
// once per process.
func simulate(dp designPoint) RunResult {
	return cachedRun(dp, func() RunResult { return runWith(dp, nil) })
}

// runWith executes dp's kernel on an observed simulator, streaming its
// annotated accesses into gw when gw is non-nil.
func runWith(dp designPoint, gw *trace.GridWriter) RunResult {
	o := observe(dp)
	if gw != nil {
		o.SetGridCapture(gw)
	}
	out := dp.w.Run(o.Sim, dp.seed)
	res := RunResult{Output: out, Sim: o.Result()}
	o.publish()
	return res
}

// observedSim is a design point's simulator with its flight recorder
// attached; rec is nil while attribution is off.
type observedSim struct {
	*memsim.Sim
	rec *attr.Recorder
}

// observe builds the simulator for dp. The recorder publishes under the
// scope workload/attachment/dp.hash(), so distinct points publish under
// distinct scopes while re-running the same point (cache disabled,
// repeated figures) republishes identically. Precise runs carry no
// annotated-load machinery worth attributing and get no recorder.
func observe(dp designPoint) observedSim {
	o := observedSim{Sim: memsim.New(dp.mem)}
	if attr.Enabled() && dp.mem.Attach != memsim.AttachNone {
		o.rec = attr.NewRecorder(fmt.Sprintf("%s/%s/%s", dp.w.Name(), dp.mem.Attach, dp.hash()))
		o.SetAttribution(o.rec)
	}
	return o
}

// publish hands the finished run's attribution to its registry.
func (o observedSim) publish() {
	if o.rec != nil {
		attr.Publish(o.rec)
	}
}

// BaselineFor returns the paper's Table II approximator configuration,
// with the confidence window applied only to floating-point data: the
// baseline uses a ±10% window for FP and no confidence for integers.
func BaselineFor(w workloads.Workload) core.Config {
	cfg := core.DefaultConfig()
	if !w.FloatData() {
		cfg.IntConfidence = false
	}
	return cfg
}

// ErrorVs computes the paper's output-error metric for an approximate run
// against the precise run of the same kernel and seed.
func ErrorVs(approx, precise RunResult) float64 {
	return approx.Output.Error(precise.Output)
}
