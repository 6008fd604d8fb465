package experiments

import (
	"runtime"
	"sync"
	"time"

	"lva/internal/core"
	"lva/internal/obs/prov"
	"lva/internal/workloads"
)

// Parallelism bounds how many kernel simulations execute concurrently in
// the whole process: every figure row, every RunAll driver and every
// RunSweep job admits its points through one shared gate. Each simulation
// is independent (its own simulator and approximator state) and every
// design point is a deterministic function of (workload, config, seed), so
// results are identical regardless of this setting. Defaults to the
// machine's parallelism.
var Parallelism = runtime.GOMAXPROCS(0)

// simGate is the process-wide admission gate. It re-reads Parallelism on
// every admit, so tests may change the bound between experiments; a lower
// bound takes effect as in-flight simulations drain. busy tracks which
// slot ids are occupied so the timeline can render one stable track per
// concurrent worker.
var simGate = struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	busy   []bool
}{}

func init() { simGate.cond = sync.NewCond(&simGate.mu) }

// admit blocks until a simulation slot is free and claims it, recording
// the wait on the (volatile) queue-wait histogram and publishing the new
// occupancy on the in-flight gauge. It returns the claimed slot id (lowest
// free, so concurrent work packs onto low-numbered timeline tracks) and
// how long the caller queued.
func admit() (slot int, wait time.Duration) {
	start := time.Now()
	simGate.mu.Lock()
	for simGate.active >= max(1, Parallelism) {
		simGate.cond.Wait()
	}
	simGate.active++
	for slot < len(simGate.busy) && simGate.busy[slot] {
		slot++
	}
	if slot == len(simGate.busy) {
		simGate.busy = append(simGate.busy, false)
	}
	simGate.busy[slot] = true
	eng.inflight.Store(int64(simGate.active))
	simGate.mu.Unlock()
	wait = time.Since(start)
	eng.queueWait.observe(wait.Seconds())
	return slot, wait
}

// release returns the slot claimed by admit.
func release(slot int) {
	simGate.mu.Lock()
	simGate.active--
	simGate.busy[slot] = false
	eng.inflight.Store(int64(simGate.active))
	simGate.cond.Signal()
	simGate.mu.Unlock()
}

// gated runs fn while holding a gate slot. When a timeline capture is
// active it also records a worker span named label on the slot's track,
// with the queue wait attached.
func gated(label string, fn func()) {
	slot, wait := admit()
	defer release(slot)
	tl := timeline.Load()
	if tl == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	tl.span(tlPidWorkers, slot, label, "task", start,
		map[string]any{"queue_wait_us": wait.Microseconds()})
}

// task is one labelled simulation point of a batch.
type task struct {
	label string
	fn    func()
}

// batch collects the simulation points of one experiment — any number of
// rows — and runs them all concurrently through the shared gate, so points
// from different rows (and, under RunAll, different figures) are in flight
// at once. fig names the owning experiment on the timeline. Tasks execute
// while holding a gate slot and must not run nested batches or phase-2
// sweeps (fullsysResults), which would wait for slots they themselves
// occupy.
type batch struct {
	fig   string
	tasks []task
	// ctrs are counter-only design points awaiting routing; run converts
	// them into header/replay/exec tasks (see ctrsched.go).
	ctrs []ctrReq
}

// newBatch starts a batch for the named experiment.
func newBatch(fig string) batch { return batch{fig: fig} }

// add schedules one labelled task for the next run call.
func (b *batch) add(label string, fn func()) {
	b.tasks = append(b.tasks, task{label: label, fn: fn})
}

// run executes every collected task gate-bounded and returns when all have
// finished, leaving the batch empty for reuse. Counter requests are routed
// into tasks first, so header/replay groups fan out alongside exec points.
func (b *batch) run() {
	b.scheduleCtrs()
	var wg sync.WaitGroup
	for _, t := range b.tasks {
		wg.Add(1)
		go func(t task) {
			defer wg.Done()
			gated(b.fig+"/"+t.label, t.fn)
		}(t)
	}
	wg.Wait()
	b.tasks = nil
}

// runPoint schedules one executed design point (route exec, "run"
// scheduler) through the run cache; the returned result is filled when
// run returns.
func (b *batch) runPoint(label string, dp designPoint) *RunResult {
	out := new(RunResult)
	fig := b.fig
	b.add(label, func() {
		pc := provBegin()
		*out = simulate(dp)
		if pc.on() {
			pc.point(fig, label, "run", prov.RouteExec, prov.CounterNone,
				provWhyOutputRow, dp, nil, provStagesRunExec)
			pc.stage("exec "+fig+"/"+label, "", "", map[string]any{"route": "exec"})
		}
	})
	return out
}

// row schedules one point per benchmark, pointFor(w) labelled
// label/<benchmark>, with schedule (runPoint or ctrPoint), and returns the
// results in registry order; they are filled when the batch runs.
func row[T any](label string, pointFor func(w workloads.Workload) designPoint, schedule func(label string, dp designPoint) *T) []*T {
	out := make([]*T, len(workloads.Names()))
	for i, w := range workloads.All() {
		out[i] = schedule(label+"/"+w.Name(), pointFor(w))
	}
	return out
}

// lva schedules one LVA point per benchmark under cfgFor(w).
func (b *batch) lva(label string, cfgFor func(w workloads.Workload) core.Config) []*RunResult {
	return row(label, func(w workloads.Workload) designPoint { return lvaPoint(w, cfgFor(w), DefaultSeed) }, b.runPoint)
}

// lvp is lva for the idealized LVP baseline.
func (b *batch) lvp(label string, cfgFor func(w workloads.Workload) core.Config) []*RunResult {
	return row(label, func(w workloads.Workload) designPoint { return lvpPoint(w, cfgFor(w), DefaultSeed) }, b.runPoint)
}

// precise schedules the precise baseline of every benchmark.
func (b *batch) precise() []*RunResult {
	return row("precise", func(w workloads.Workload) designPoint { return precisePoint(w, DefaultSeed) }, b.runPoint)
}
