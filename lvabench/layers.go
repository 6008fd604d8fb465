package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"

	"lva"
	"lva/internal/cache"
	"lva/internal/coherence"
	"lva/internal/core"
	"lva/internal/dram"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/noc"
	"lva/internal/prefetch"
	"lva/internal/trace"
	"lva/internal/value"
	"lva/internal/workloads"
)

// figureIDs are the figures the three workloads regenerate.
var figureIDs = []string{
	"fig5", "fig6", "fig7", "fig9", "ablation-compute", "ablation-conf", "ablation-lhb",
	"table1", "fig4", "fig8", "fig12", "fig13", "ablation-table",
	"fig10", "fig11",
}

// metricDef names a reported metric, its unit and which direction is
// better; BENCHMARK.json lists the same.
type metricDef struct{ name, unit, better string }

// layerMetrics lists every per-layer metric, in report order. A traced run
// reports all of them; a layer its workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	var ms []metricDef
	for _, id := range figureIDs {
		ms = append(ms, metricDef{"experiments.figure." + id + ".s", "s", "lower"})
	}
	return append(ms, []metricDef{
		{"experiments.runcache.lookups", "count", "lower"},
		{"experiments.runcache.hits", "count", "higher"},
		{"experiments.runcache.simulated", "count", "lower"},
		{"experiments.tracestore.recordings", "count", "lower"},
		{"experiments.tracestore.footer_points", "count", "higher"},
		{"experiments.tracestore.replay_passes", "count", "lower"},
		{"experiments.tracestore.replay_points", "count", "higher"},
		{"experiments.tracestore.exec_points", "count", "lower"},
		{"experiments.gate.wait_p50_s", "s", "lower"},
		{"experiments.gate.wait_p90_s", "s", "lower"},
		{"workloads.kernel.s", "s", "lower"},
		{"memsim.exec.ns_per_access", "ns", "lower"},
		{"memsim.replay.ns_per_point_access", "ns", "lower"},
		{"memsim.allocs_per_kaccess", "allocs", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.miss_ratio", "ratio", "lower"},
		{"core.ns_per_miss", "ns", "lower"},
		{"core.allocs_per_miss", "allocs", "lower"},
		{"core.coverage", "ratio", "higher"},
		{"prefetch.ns_per_miss", "ns", "lower"},
		{"prefetch.allocs_per_miss", "allocs", "lower"},
		{"prefetch.issued_per_miss", "ratio", "lower"},
		{"trace.encode.ns_per_access", "ns", "lower"},
		{"trace.encode.bytes_per_access", "B", "lower"},
		{"trace.decode.ns_per_access", "ns", "lower"},
		{"trace.decode.allocs_per_chunk", "allocs", "lower"},
		{"fullsys.self_ns_per_access", "ns", "lower"},
		{"fullsys.allocs_per_access", "allocs", "lower"},
		{"fullsys.sweep_max_s", "s", "lower"},
		{"fullsys.l1_load_misses", "count", "lower"},
		{"fullsys.fetches", "count", "lower"},
		{"fullsys.elided_fetches", "count", "higher"},
		{"fullsys.l2_accesses", "count", "lower"},
		{"fullsys.stall_cycles", "count", "lower"},
		{"noc.packets", "count", "lower"},
		{"noc.flit_hops", "count", "lower"},
		{"noc.ns_per_packet", "ns", "lower"},
		{"noc.allocs_per_packet", "allocs", "lower"},
		{"coherence.invalidations", "count", "lower"},
		{"coherence.flushes", "count", "lower"},
		{"coherence.ns_per_op", "ns", "lower"},
		{"coherence.allocs_per_op", "allocs", "lower"},
		{"dram.accesses", "count", "lower"},
		{"dram.row_hit_ratio", "ratio", "higher"},
		{"dram.ns_per_access", "ns", "lower"},
		{"go.gc_cpu_s", "s", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.peak_rss_mb", "MB", "lower"},
		{"host.probe_ms", "ms", "lower"},
		{"traced.wall_s", "s", "lower"},
		{"traced.cpu_s", "s", "lower"},
		{"traced.alloc_mb", "MB", "lower"},
		{"traced.allocs_m", "M", "lower"},
		{"traced.setup_s", "s", "lower"},
	}...)
}()

// prefetchDegrees are Figure 8's prefetch degrees.
var prefetchDegrees = []int{2, 4, 8, 16}

// traceRun is the state of one traced run.
type traceRun struct {
	t    *tracer
	seed uint64
	vals map[string]float64
	// counts are the drives' seed-dependent counts, which must repeat
	// exactly across traced runs at one seed.
	counts map[string]uint64
	checks int
	failed []string
}

func (r *traceRun) check(ok bool, what string) {
	r.checks++
	if !ok {
		r.failed = append(r.failed, what)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun regenerates the workload once, then each of its figures alone,
// each from the workload's start state, and finally drives the layers the
// workload exercises directly on streams recorded at seed. Spans are
// recorded only around the benchmark's own calls into each layer.
func tracedRun(w workload, st *startState, golden map[string]string, seed uint64, e env) (result, map[string]uint64, map[string]any, error) {
	r := &traceRun{t: newTracer(), seed: seed, vals: map[string]float64{}, counts: map[string]uint64{}}
	res := result{Metrics: map[string]metric{}}
	r.vals["host.probe_ms"] = e.ProbeMS

	// The whole workload, as the untraced run measures it.
	setupS, err := timedSetup(w, st)
	if err != nil {
		return res, nil, nil, err
	}
	runtime.GC()
	_, q0 := gateWaits()
	rt0 := readRuntime()
	var bad []string
	sp := r.t.begin("workload/" + w.name)
	c, err := measure(func() error {
		var err error
		bad, err = regenerate(w, golden)
		return err
	})
	r.t.end(sp)
	if err != nil {
		return res, nil, nil, err
	}
	rt1 := readRuntime()
	bounds, q1 := gateWaits()
	counts := snapshotCounts(w)
	res.Attempted += len(w.figures)
	res.Failed += len(bad)
	r.vals["traced.wall_s"] = c.Wall
	r.vals["traced.cpu_s"] = c.CPU
	r.vals["traced.alloc_mb"] = c.AllocMB
	r.vals["traced.allocs_m"] = c.AllocsM
	r.vals["traced.setup_s"] = setupS
	r.vals["go.gc_cpu_s"] = rt1.gcCPU - rt0.gcCPU
	r.vals["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	r.vals["go.peak_rss_mb"] = peakRSSMB()
	for _, k := range []string{"runcache.lookups", "runcache.hits", "runcache.simulated",
		"tracestore.recordings", "tracestore.footer_points", "tracestore.replay_passes",
		"tracestore.replay_points", "tracestore.exec_points"} {
		r.vals["experiments."+k] = float64(counts[k])
	}
	r.vals["experiments.gate.wait_p50_s"] = bucketQuantile(bounds, q0, q1, 0.5)
	r.vals["experiments.gate.wait_p90_s"] = bucketQuantile(bounds, q0, q1, 0.9)

	// Each figure alone from the start state.
	for _, id := range w.figures {
		if _, err := restart(w, st); err != nil {
			return res, nil, nil, err
		}
		runtime.GC()
		sp := r.t.begin("figure/" + id)
		figs, err := experiments.RunAll(id)
		r.t.end(sp)
		if err != nil {
			return res, nil, nil, err
		}
		b := checkFigures(figs, []string{id}, golden)
		res.Attempted++
		res.Failed += len(b)
		bad = append(bad, b...)
		r.vals["experiments.figure."+id+".s"] = r.t.dur(sp).Seconds()
	}

	// The layers, driven directly on streams recorded at seed into a fresh
	// private store.
	if _, err := timedSetup(workload{}, st); err != nil {
		return res, nil, nil, err
	}
	runtime.GC()
	if err := r.driveLayers(w, counts); err != nil {
		return res, nil, nil, err
	}
	res.Attempted += r.checks
	res.Failed += len(r.failed)
	res.Correct = res.Failed == 0

	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{r.vals[m.name], m.unit}
	}
	spans := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := r.t.write(spans); err != nil {
		return res, nil, nil, err
	}
	maps.Copy(counts, r.counts)
	detail := map[string]any{
		"golden_mismatches": bad,
		"failed_checks":     r.failed,
		"spans":             spans,
		"span_count":        len(r.t.spans),
	}
	return res, counts, detail, nil
}

// gateWaits reads the scheduler's always-on queue-wait histogram: its
// bucket bounds and per-bucket counts.
func gateWaits() (bounds []float64, counts []uint64) {
	for _, m := range lva.Metrics(true).Metrics {
		if m.Name != "sched_queue_wait_seconds" {
			continue
		}
		for _, b := range m.Buckets {
			v, err := strconv.ParseFloat(b.Le, 64)
			if err != nil || math.IsInf(v, 1) {
				continue // the overflow bucket reports the last finite bound
			}
			bounds = append(bounds, v)
		}
		for _, b := range m.Buckets {
			counts = append(counts, b.Count)
		}
	}
	return bounds, counts
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile of the waits counted between two readings. Waits in the
// overflow bucket report the last finite bound.
func bucketQuantile(bounds []float64, before, after []uint64, q float64) float64 {
	if len(bounds) == 0 || len(after) == 0 {
		return 0
	}
	delta := make([]uint64, len(after))
	var total uint64
	for i := range after {
		delta[i] = after[i]
		if i < len(before) {
			delta[i] -= before[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := max(uint64(q*float64(total)), 1)
	var cum uint64
	for i, n := range delta {
		cum += n
		if cum >= target {
			return bounds[min(i, len(bounds)-1)]
		}
	}
	return bounds[len(bounds)-1]
}

// stream is an open recording.
type stream struct {
	f   *os.File
	hdr trace.GridHeader
	gr  *trace.GridReader
}

// openStream records (or finds) the kind stream of wk at the run's seed in
// the current store and opens it for decoding.
func (r *traceRun) openStream(kind string, wk workloads.Workload) (*stream, error) {
	path, err := experiments.EnsureGridStream(kind, wk, r.seed)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr, err := trace.ReadGridFooter(f)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	var gr *trace.GridReader
	if err == nil {
		gr, err = trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("opening %s stream of %s: %w", kind, wk.Name(), err)
	}
	return &stream{f: f, hdr: hdr, gr: gr}, nil
}

// simConfig is the phase-1 configuration a stream kind was recorded under:
// precise, or the Table II baseline approximator.
func simConfig(kind string, wk workloads.Workload) memsim.Config {
	cfg := memsim.DefaultConfig()
	if kind == "precise" {
		cfg.Attach = memsim.AttachNone
	} else {
		cfg.Attach = memsim.AttachLVA
		cfg.Approx = experiments.BaselineFor(wk)
	}
	return cfg
}

// driveLayers runs the direct layer drives the workload exercises.
func (r *traceRun) driveLayers(w workload, groupCounts map[string]uint64) error {
	kinds := []string{"precise", "lvabase"}
	phase2 := w.name == "phase2"
	if phase2 {
		kinds = kinds[:1]
	}
	sp := r.t.begin("record")
	err := recordAll(r.seed, kinds...)
	r.t.end(sp)
	if err != nil {
		return err
	}

	if w.name == "phase1-exec" {
		if err := r.repeated(3, func() error { r.driveKernels(); return nil }); err != nil {
			return err
		}
	}
	if !phase2 {
		if err := r.repeated(3, r.driveMemsim); err != nil {
			return err
		}
	}
	if run := r.vals["workloads.run.s"]; run > 0 {
		r.vals["workloads.kernel.s"] = run - r.vals["memsim.exec.s"]
	}
	if err := r.repeated(5, func() error { return r.driveCache(phase2) }); err != nil {
		return err
	}
	ev, err := r.deriveEvents(phase2)
	if err != nil {
		return err
	}
	switch w.name {
	case "phase1-exec":
		err = r.repeated(5, func() error { r.driveCore(ev); return nil })
	case "phase1-replay":
		err = r.repeated(3, func() error { r.drivePrefetch(ev); return nil })
	}
	if err != nil {
		return err
	}
	if w.name != "phase1-exec" {
		if err := r.repeated(5, r.driveTrace); err != nil {
			return err
		}
	}
	if phase2 {
		if err := r.driveFullsys(groupCounts); err != nil {
			return err
		}
		return r.repeated(5, func() error {
			r.driveNoC(ev)
			r.driveCoherence(ev)
			r.driveDRAM(ev)
			return nil
		})
	}
	return nil
}

// repeated runs drive reps times and keeps the median of every value it
// records: the standalone drives are short enough that one burst of host
// noise would otherwise move them. Each repetition records into a fresh
// r.vals.
func (r *traceRun) repeated(reps int, drive func() error) error {
	all := r.vals
	defer func() { r.vals = all }()
	runs := map[string][]float64{}
	for i := 0; i < reps; i++ {
		r.vals = map[string]float64{}
		if err := drive(); err != nil {
			return err
		}
		for k, v := range r.vals {
			runs[k] = append(runs[k], v)
		}
	}
	for k, xs := range runs {
		all[k] = median(xs)
	}
	return nil
}

// driveKernels times each kernel's execution under memsim at the precise
// and Table II configurations. Kernel time is that minus memsim's own
// share, which driveMemsim measures by replaying the same streams.
func (r *traceRun) driveKernels() {
	var total float64
	for _, wk := range workloads.All() {
		for _, kind := range []string{"precise", "lvabase"} {
			sim := memsim.New(simConfig(kind, wk))
			sp := r.t.begin("workloads.run/" + wk.Name() + "/" + kind)
			wk.Run(sim, r.seed)
			r.t.end(sp)
			total += r.t.dur(sp).Seconds()
		}
	}
	r.vals["workloads.run.s"] = total
}

// driveMemsim replays every stream through one simulator of its recording
// configuration, checking the counters against the recording's, and the
// precise streams through Figure 8's prefetcher group of simulators.
func (r *traceRun) driveMemsim() error {
	var oneNS, oneAllocs, oneAcc, grpNS, grpPointAcc float64
	for _, wk := range workloads.All() {
		for _, kind := range []string{"precise", "lvabase"} {
			s, err := r.openStream(kind, wk)
			if err != nil {
				return err
			}
			sim := memsim.New(simConfig(kind, wk))
			src := &tracedSource{t: r.t, src: s.gr}
			sp := r.t.begin("memsim.replay/" + wk.Name() + "/" + kind)
			err = memsim.Replay(src, s.hdr.Instructions, []*memsim.Sim{sim})
			r.t.end(sp)
			s.f.Close()
			if err != nil {
				return err
			}
			var want memsim.Result
			if err := json.Unmarshal(s.hdr.Meta, &want); err != nil {
				return err
			}
			r.check(reflect.DeepEqual(sim.Result(), want), "memsim replay of "+kind+"/"+wk.Name()+" differs from its recording")
			oneNS += float64(r.t.self(sp))
			oneAllocs += float64(r.t.selfAllocs(sp))
			oneAcc += float64(src.accesses)
		}

		s, err := r.openStream("precise", wk)
		if err != nil {
			return err
		}
		sims := make([]*memsim.Sim, len(prefetchDegrees))
		for i, d := range prefetchDegrees {
			cfg := memsim.DefaultConfig()
			cfg.Attach = memsim.AttachPrefetch
			cfg.Prefetch = prefetch.DefaultConfig()
			cfg.Prefetch.Degree = d
			sims[i] = memsim.New(cfg)
		}
		src := &tracedSource{t: r.t, src: s.gr}
		sp := r.t.begin("memsim.replay-group/" + wk.Name())
		err = memsim.Replay(src, s.hdr.Instructions, sims)
		r.t.end(sp)
		s.f.Close()
		if err != nil {
			return err
		}
		grpNS += float64(r.t.self(sp))
		grpPointAcc += float64(src.accesses) * float64(len(sims))
	}
	r.vals["memsim.exec.ns_per_access"] = ratio(oneNS, oneAcc)
	r.vals["memsim.allocs_per_kaccess"] = ratio(oneAllocs*1000, oneAcc)
	r.vals["memsim.replay.ns_per_point_access"] = ratio(grpNS, grpPointAcc)
	r.vals["memsim.exec.s"] = oneNS / 1e9
	return nil
}

// l1Caches builds the standalone L1s: memsim's one L1 for phase 1, or one
// full-system L1 per core for phase 2 (a thread runs on core thread%cores).
func l1Caches(phase2 bool) []*cache.Cache {
	if !phase2 {
		return []*cache.Cache{cache.New(memsim.DefaultConfig().L1)}
	}
	cfg := fullsys.DefaultConfig()
	cs := make([]*cache.Cache, cfg.Cores)
	for i := range cs {
		cs[i] = cache.New(cfg.L1)
	}
	return cs
}

// driveCache runs every precise stream through standalone L1s with the
// calls the simulators make: Probe, then Touch/TouchStore on a hit or
// FillAbsent on a miss.
func (r *traceRun) driveCache(phase2 bool) error {
	var ns, acc, misses float64
	for _, wk := range workloads.All() {
		s, err := r.openStream("precise", wk)
		if err != nil {
			return err
		}
		cs := l1Caches(phase2)
		n := uint8(len(cs))
		var miss uint64
		src := &tracedSource{t: r.t, src: s.gr}
		sp := r.t.begin("cache/" + wk.Name())
		for {
			accs, _, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.t.end(sp)
				s.f.Close()
				return err
			}
			for i := range accs {
				a := &accs[i]
				c := cs[a.Thread%n]
				if idx := c.Probe(a.Addr); idx >= 0 {
					if a.Op == trace.Store {
						c.TouchStore(idx)
					} else {
						c.Touch(idx)
					}
					continue
				}
				miss++
				c.FillAbsent(a.Addr, false)
			}
		}
		r.t.end(sp)
		s.f.Close()
		ns += float64(r.t.self(sp))
		acc += float64(src.accesses)
		misses += float64(miss)
	}
	r.vals["cache.ns_per_access"] = ratio(ns, acc)
	r.vals["cache.miss_ratio"] = ratio(misses, acc)
	r.counts["drive.cache.misses"] = uint64(misses)
	r.counts["drive.cache.accesses"] = uint64(acc)
	return nil
}

// coreEvent is one annotated L1 load miss, with the number of loads since
// the previous one, this one included.
type coreEvent struct {
	loads uint32
	pc    uint64
	v     value.Value
}

// pfEvent is one L1 load miss as the prefetcher sees it.
type pfEvent struct{ pc, block uint64 }

// missEvent is one phase-2 L1 miss or eviction on a core.
type missEvent struct {
	core  int
	op    uint8
	block uint64
}

const (
	opLoad uint8 = iota
	opStore
	opEvict
)

// streamEvents are the events standalone caches derive from one precise
// stream, for the drives of the layers below the L1.
type streamEvents struct {
	core   []coreEvent // phase 1: annotated L1 load misses
	pf     []pfEvent   // phase 1: all L1 load misses
	misses []missEvent // phase 2: L1 misses and evictions per core
	l2Miss []uint64    // phase 2: blocks that also miss the shared L2
}

// homeOf is the full-system simulator's home bank of a block.
func homeOf(block uint64, cores int) int { return int((block >> 6) % uint64(cores)) }

// deriveEvents walks each precise stream through standalone caches and
// collects the events the lower layers' drives replay. It measures no
// layer; its span only shows where the traced run's time went.
func (r *traceRun) deriveEvents(phase2 bool) ([]streamEvents, error) {
	sp := r.t.begin("derive")
	defer r.t.end(sp)
	fcfg := fullsys.DefaultConfig()
	var out []streamEvents
	for _, wk := range workloads.All() {
		s, err := r.openStream("precise", wk)
		if err != nil {
			return nil, err
		}
		cs := l1Caches(phase2)
		var l2 []*cache.Cache
		if phase2 {
			for i := 0; i < fcfg.Cores; i++ {
				l2 = append(l2, cache.New(fcfg.L2))
			}
		}
		n := uint8(len(cs))
		var ev streamEvents
		var loads uint32
		for {
			accs, _, err := s.gr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.f.Close()
				return nil, err
			}
			for i := range accs {
				a := &accs[i]
				c := cs[a.Thread%n]
				if a.Op == trace.Load {
					loads++
				}
				if idx := c.Probe(a.Addr); idx >= 0 {
					if a.Op == trace.Store {
						c.TouchStore(idx)
					} else {
						c.Touch(idx)
					}
					continue
				}
				block := c.BlockAddr(a.Addr)
				victim, valid, _ := c.FillAbsent(a.Addr, false)
				if !phase2 {
					if a.Op == trace.Load {
						ev.pf = append(ev.pf, pfEvent{a.PC, block})
						if a.Approx {
							ev.core = append(ev.core, coreEvent{loads, a.PC, a.Value})
							loads = 0
						}
					}
					continue
				}
				id := int(a.Thread % n)
				op := opLoad
				if a.Op == trace.Store {
					op = opStore
				}
				ev.misses = append(ev.misses, missEvent{id, op, block})
				if valid {
					ev.misses = append(ev.misses, missEvent{id, opEvict, victim})
				}
				h := l2[homeOf(block, fcfg.Cores)]
				if idx := h.Probe(block); idx >= 0 {
					h.Touch(idx)
				} else {
					ev.l2Miss = append(ev.l2Miss, block)
					h.FillAbsent(block, false)
				}
			}
		}
		s.f.Close()
		out = append(out, ev)
	}
	return out, nil
}

// driveCore presents each stream's annotated misses to a standalone Table
// II approximator, with OnLoad for every load in between.
func (r *traceRun) driveCore(evs []streamEvents) {
	var ns, allocs, misses, approx float64
	for i, wk := range workloads.All() {
		a := core.New(experiments.BaselineFor(wk))
		sp := r.t.begin("core/" + wk.Name())
		for _, e := range evs[i].core {
			for k := uint32(0); k < e.loads; k++ {
				a.OnLoad()
			}
			a.OnMiss(e.pc, e.v)
		}
		r.t.end(sp)
		ns += float64(r.t.self(sp))
		allocs += float64(r.t.selfAllocs(sp))
		st := a.Stats()
		misses += float64(st.Misses)
		approx += float64(st.Approximations)
	}
	r.vals["core.ns_per_miss"] = ratio(ns, misses)
	r.vals["core.allocs_per_miss"] = ratio(allocs, misses)
	r.vals["core.coverage"] = ratio(approx, misses)
	r.counts["drive.core.misses"] = uint64(misses)
	r.counts["drive.core.approximations"] = uint64(approx)
}

// drivePrefetch presents each stream's L1 load misses to a standalone GHB
// prefetcher at each of Figure 8's degrees.
func (r *traceRun) drivePrefetch(evs []streamEvents) {
	var ns, allocs, misses, issued float64
	for i, wk := range workloads.All() {
		for _, d := range prefetchDegrees {
			cfg := prefetch.DefaultConfig()
			cfg.Degree = d
			p := prefetch.New(cfg)
			var n int
			sp := r.t.begin(fmt.Sprintf("prefetch/%s/%d", wk.Name(), d))
			for _, e := range evs[i].pf {
				n += len(p.OnMiss(e.pc, e.block))
			}
			r.t.end(sp)
			ns += float64(r.t.self(sp))
			allocs += float64(r.t.selfAllocs(sp))
			misses += float64(len(evs[i].pf))
			issued += float64(n)
		}
	}
	r.vals["prefetch.ns_per_miss"] = ratio(ns, misses)
	r.vals["prefetch.allocs_per_miss"] = ratio(allocs, misses)
	r.vals["prefetch.issued_per_miss"] = ratio(issued, misses)
	r.counts["drive.prefetch.issued"] = uint64(issued)
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// driveTrace re-encodes every precise stream with a GridWriter into a
// counting discard, then decodes it again with a bare GridReader.
func (r *traceRun) driveTrace() error {
	var encNS, encAcc, decNS, decAcc, decChunks, decAllocs float64
	var bytes int64
	for _, wk := range workloads.All() {
		s, err := r.openStream("precise", wk)
		if err != nil {
			return err
		}
		cw := &countWriter{}
		src := &tracedSource{t: r.t, src: s.gr}
		sp := r.t.begin("trace.encode/" + wk.Name())
		gw := trace.NewGridWriter(cw, s.hdr.Name, s.hdr.Key, s.hdr.Seed)
		for {
			accs, insts, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.t.end(sp)
				s.f.Close()
				return err
			}
			for i := range accs {
				a := &accs[i]
				gw.Access(a.PC, a.Addr, a.Value, a.Op, a.Approx, a.Thread, insts[i])
			}
		}
		_, err = gw.Finish(s.hdr.Instructions, s.hdr.Meta)
		r.t.end(sp)
		s.f.Close()
		if err != nil {
			return err
		}
		encNS += float64(r.t.self(sp))
		encAcc += float64(src.accesses)
		bytes += cw.n

		s, err = r.openStream("precise", wk)
		if err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var chunks, accesses float64
		sp = r.t.begin("trace.decode/" + wk.Name())
		for {
			accs, _, err := s.gr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.t.end(sp)
				s.f.Close()
				return err
			}
			chunks++
			accesses += float64(len(accs))
		}
		r.t.end(sp)
		runtime.ReadMemStats(&ms1)
		s.f.Close()
		decNS += float64(r.t.dur(sp))
		decAcc += accesses
		decChunks += chunks
		decAllocs += float64(ms1.Mallocs - ms0.Mallocs)
	}
	r.vals["trace.encode.ns_per_access"] = ratio(encNS, encAcc)
	r.vals["trace.encode.bytes_per_access"] = ratio(float64(bytes), encAcc)
	r.vals["trace.decode.ns_per_access"] = ratio(decNS, decAcc)
	r.vals["trace.decode.allocs_per_chunk"] = ratio(decAllocs, decChunks)
	r.counts["drive.trace.encode.bytes"] = uint64(bytes)
	return nil
}

// fullsysConfigs are the six configurations Figures 10 and 11 run per
// kernel: precise, then the approximator at each degree with the
// full-system value delay of one load.
func fullsysConfigs(wk workloads.Workload) []fullsys.Config {
	base := fullsys.DefaultConfig()
	cfgs := []fullsys.Config{base}
	for _, d := range fullsysDegrees {
		a := experiments.BaselineFor(wk)
		a.Degree = d
		a.ValueDelay = 1
		c := base
		c.Approx = &a
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// driveFullsys streams every precise recording through the six phase-2
// configurations, one kernel's sweep after another. fullsys self time is
// the RunStream span minus the decode spans of its source.
func (r *traceRun) driveFullsys(groupCounts map[string]uint64) error {
	var ns, allocs, acc, sweepMax float64
	var sum fullsys.Result
	for _, wk := range workloads.All() {
		sweep := r.t.begin("fullsys.sweep/" + wk.Name())
		for i, cfg := range fullsysConfigs(wk) {
			s, err := r.openStream("precise", wk)
			if err != nil {
				r.t.end(sweep)
				return err
			}
			src := &tracedSource{t: r.t, src: s.gr}
			sp := r.t.begin(fmt.Sprintf("fullsys.run/%s/%d", wk.Name(), i))
			res, err := fullsys.New(cfg).RunStream(s.hdr.Threads, src)
			r.t.end(sp)
			s.f.Close()
			if err != nil {
				r.t.end(sweep)
				return err
			}
			ns += float64(r.t.self(sp))
			allocs += float64(r.t.selfAllocs(sp))
			acc += float64(src.accesses)
			addFullsys(&sum, res)
		}
		r.t.end(sweep)
		sweepMax = max(sweepMax, r.t.dur(sweep).Seconds())
	}
	counts := fullsysCounts(sum)
	if r.seed == experiments.DefaultSeed {
		// At the figures' seed the direct drive must reproduce exactly the
		// events the figure run simulated.
		for k, v := range counts {
			r.check(groupCounts[k] == v, "direct full-system drive differs from the figures' on "+k)
		}
	}
	r.vals["fullsys.self_ns_per_access"] = ratio(ns, acc)
	r.vals["fullsys.allocs_per_access"] = ratio(allocs, acc)
	r.vals["fullsys.sweep_max_s"] = sweepMax
	r.vals["fullsys.l1_load_misses"] = float64(sum.L1LoadMisses)
	r.vals["fullsys.fetches"] = float64(sum.Fetches)
	r.vals["fullsys.elided_fetches"] = float64(sum.ElidedFetches)
	r.vals["fullsys.l2_accesses"] = float64(sum.L2Accesses)
	r.vals["fullsys.stall_cycles"] = float64(sum.StallCycles)
	r.vals["noc.packets"] = float64(sum.Packets)
	r.vals["noc.flit_hops"] = float64(sum.FlitHops)
	r.vals["coherence.invalidations"] = float64(sum.Invalidations)
	r.vals["coherence.flushes"] = float64(sum.Flushes)
	r.vals["dram.accesses"] = float64(sum.DRAMAccesses)
	r.vals["dram.row_hit_ratio"] = ratio(float64(sum.DRAMRowHits), float64(sum.DRAMAccesses))
	r.counts["drive.fullsys.l1_load_misses"] = sum.L1LoadMisses
	r.counts["drive.fullsys.fetches"] = sum.Fetches
	r.counts["drive.fullsys.stall_cycles"] = sum.StallCycles
	return nil
}

// driveNoC sends one request/response pair per phase-2 L1 miss between the
// core and the block's home node on a standalone mesh.
func (r *traceRun) driveNoC(evs []streamEvents) {
	var ns, allocs, packets float64
	cores := fullsys.DefaultConfig().Cores
	for i, wk := range workloads.All() {
		m := noc.New(noc.DefaultConfig())
		var now uint64
		sp := r.t.begin("noc/" + wk.Name())
		for _, e := range evs[i].misses {
			if e.op == opEvict {
				continue
			}
			home := homeOf(e.block, cores)
			now = m.SendData(home, e.core, m.SendCtrl(e.core, home, now))
		}
		r.t.end(sp)
		ns += float64(r.t.self(sp))
		allocs += float64(r.t.selfAllocs(sp))
		packets += float64(m.Stats().Packets)
	}
	r.vals["noc.ns_per_packet"] = ratio(ns, packets)
	r.vals["noc.allocs_per_packet"] = ratio(allocs, packets)
	r.counts["drive.noc.packets"] = uint64(packets)
}

// driveCoherence replays the phase-2 L1 misses and evictions against a
// standalone four-node directory.
func (r *traceRun) driveCoherence(evs []streamEvents) {
	var ns, allocs, ops float64
	for i, wk := range workloads.All() {
		d := coherence.NewDirectory(fullsys.DefaultConfig().Cores)
		sp := r.t.begin("coherence/" + wk.Name())
		for _, e := range evs[i].misses {
			switch e.op {
			case opLoad:
				d.Load(e.block, e.core)
			case opStore:
				d.Store(e.block, e.core)
			default:
				d.Evict(e.block, e.core)
			}
		}
		r.t.end(sp)
		ns += float64(r.t.self(sp))
		allocs += float64(r.t.selfAllocs(sp))
		ops += float64(len(evs[i].misses))
	}
	r.vals["coherence.ns_per_op"] = ratio(ns, ops)
	r.vals["coherence.allocs_per_op"] = ratio(allocs, ops)
	r.counts["drive.coherence.ops"] = uint64(ops)
}

// driveDRAM presents the blocks that miss the standalone L2 to a
// standalone DRAM, one per cycle.
func (r *traceRun) driveDRAM(evs []streamEvents) {
	var ns, n float64
	for i, wk := range workloads.All() {
		d := dram.New(dram.DefaultConfig())
		sp := r.t.begin("dram/" + wk.Name())
		for k, b := range evs[i].l2Miss {
			d.Access(b, uint64(k))
		}
		r.t.end(sp)
		ns += float64(r.t.self(sp))
		n += float64(len(evs[i].l2Miss))
	}
	r.vals["dram.ns_per_access"] = ratio(ns, n)
	r.counts["drive.dram.accesses"] = uint64(n)
}
