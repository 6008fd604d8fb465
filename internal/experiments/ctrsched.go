package experiments

import (
	"bufio"
	"os"

	"lva/internal/core"
	"lva/internal/memsim"
	"lva/internal/obs/prov"
	"lva/internal/trace"
	"lva/internal/workloads"
)

// Counter scheduling: the replay-many half of the grid pipeline. A figure
// whose rows read only memsim.Result counters (Table 1, Figures 4, 8, 12,
// 13, the table ablation) declares its design points through ctrPoint
// instead of runPoint; batch.run sends each one down the route that
// route(dp) picks:
//
//   - header: the point IS a recorded stream's run (the precise baseline,
//     or the Table II LVA baseline) — its counters come straight from the
//     stream footer. Zero simulation.
//   - replay: the point consumes only precise values (any LVP or prefetch
//     config; any LVA config on a feedback-free kernel), so it is
//     simulated by replaying the workload's precise stream. All replay
//     points of one workload share a single decode pass.
//   - exec: everything else (LVA off the baseline on a feedback kernel)
//     re-executes through the ordinary memoized Run* path, because the
//     values its annotated loads observe depend on the approximator.
//
// Output-error figures never come through here: Output requires kernel
// arithmetic, so they keep executing through runPoint.

type ctrRoute int

const (
	ctrHeader ctrRoute = iota
	ctrReplay
	ctrExec
)

// route picks the cheapest exact route for dp's counters and returns it
// with its provenance justification. It is a pure function of the point.
func route(dp designPoint) (ctrRoute, string) {
	switch {
	case dp.mem.Attach == memsim.AttachNone:
		return ctrHeader, provWhyPrecise
	case dp.mem.Attach == memsim.AttachLVP:
		return ctrReplay, provWhyLVP
	case dp.mem.Attach == memsim.AttachPrefetch:
		return ctrReplay, provWhyPrefetch
	case dp.mem == lvaPoint(dp.w, BaselineFor(dp.w), dp.seed).mem:
		return ctrHeader, provWhyBaseline
	case dp.w.FeedbackFree():
		return ctrReplay, provWhyFeedbackFree
	}
	return ctrExec, provWhyFeedback
}

// ctrReq is one counter-only design point; scheduleCtrs fills in its
// route.
type ctrReq struct {
	label string
	dp    designPoint
	route ctrRoute
	why   string // provenance justification of the route
	out   *memsim.Result
}

// ctrPoint schedules one design point's counters; the returned result is
// filled when the batch runs.
func (b *batch) ctrPoint(label string, dp designPoint) *memsim.Result {
	out := new(memsim.Result)
	b.ctrs = append(b.ctrs, ctrReq{label: label, dp: dp, out: out})
	return out
}

// ctrPrecise schedules the precise counters of every benchmark.
func (b *batch) ctrPrecise() []*memsim.Result {
	return row("precise", func(w workloads.Workload) designPoint { return precisePoint(w, DefaultSeed) }, b.ctrPoint)
}

// ctrLVA schedules one LVA point per benchmark under cfgFor(w).
func (b *batch) ctrLVA(label string, cfgFor func(w workloads.Workload) core.Config) []*memsim.Result {
	return row(label, func(w workloads.Workload) designPoint { return lvaPoint(w, cfgFor(w), DefaultSeed) }, b.ctrPoint)
}

// ctrLVP schedules one idealized-LVP point per benchmark under cfgFor(w).
func (b *batch) ctrLVP(label string, cfgFor func(w workloads.Workload) core.Config) []*memsim.Result {
	return row(label, func(w workloads.Workload) designPoint { return lvpPoint(w, cfgFor(w), DefaultSeed) }, b.ctrPoint)
}

// ctrPrefetch schedules one GHB-prefetcher point per benchmark at a
// degree.
func (b *batch) ctrPrefetch(label string, degree int) []*memsim.Result {
	return row(label, func(w workloads.Workload) designPoint { return prefetchPoint(w, degree, DefaultSeed) }, b.ctrPoint)
}

// scheduleCtrs converts the collected counter requests into batch tasks:
// one task per recorded-stream header group, one per-workload replay task
// (all its points ride one decode pass), and one task per exec point.
// Grouping follows insertion order, so the task list — and with it the
// timeline — is deterministic across parallelism levels.
func (b *batch) scheduleCtrs() {
	reqs := b.ctrs
	b.ctrs = nil
	if len(reqs) == 0 {
		return
	}
	fig := b.fig
	if !replayEnabled() {
		for i := range reqs {
			r := &reqs[i]
			b.add(r.label, func() {
				pc := provBegin()
				*r.out = simulate(r.dp).Sim
				if pc.on() {
					pc.point(fig, r.label, "run", prov.RouteExec, prov.CounterNone,
						provWhyReplayOff, r.dp, nil, provStagesRunExec)
					pc.stage("exec "+fig+"/"+r.label, "", "", map[string]any{"route": "exec"})
				}
			})
		}
		return
	}
	// A header group's points all are its stream's point, so the group
	// is named by workload and stream kind.
	type hkey struct{ name, kind string }
	var (
		horder  []hkey
		hgroups = make(map[hkey][]*ctrReq)
		rorder  []string
		rgroups = make(map[string][]*ctrReq)
	)
	for i := range reqs {
		r := &reqs[i]
		r.route, r.why = route(r.dp)
		switch r.route {
		case ctrHeader:
			k := hkey{r.dp.w.Name(), streamKind(r.dp)}
			if _, ok := hgroups[k]; !ok {
				horder = append(horder, k)
			}
			hgroups[k] = append(hgroups[k], r)
		case ctrReplay:
			name := r.dp.w.Name()
			if _, ok := rgroups[name]; !ok {
				rorder = append(rorder, name)
			}
			rgroups[name] = append(rgroups[name], r)
		default:
			b.add(r.label, func() {
				pc := provBegin()
				*r.out = simulate(r.dp).Sim
				traceStats.execPoints.Add(1)
				if pc.on() {
					pc.point(fig, r.label, "ctr", prov.RouteExec, prov.CounterExec,
						r.why, r.dp, nil, provStagesCtrExec)
					pc.stage("exec "+fig+"/"+r.label, "", "", map[string]any{"route": "exec", "why": r.why})
				}
			})
		}
	}
	for _, k := range horder {
		group := hgroups[k]
		b.add("grid/"+k.name+"/"+k.kind, func() { serveHeaders(fig, group) })
	}
	for _, name := range rorder {
		group := rgroups[name]
		b.add("grid/"+name+"/replay", func() { serveReplay(fig, group) })
	}
}

// serveHeaders resolves a header group from its recorded stream's footer
// counters. ensureStream falls back to (cached, capturing) execution when
// no recording exists yet, so res is always the exact design-point result.
func serveHeaders(fig string, group []*ctrReq) {
	pc := provBegin()
	dp := group[0].dp
	st := ensureStream(dp)
	for _, r := range group {
		*r.out = st.res
		traceStats.headerHits.Add(1)
		pc.point(fig, r.label, "ctr", prov.RouteFooter, prov.CounterFooter,
			r.why, r.dp, st, provStagesFooter)
	}
	if pc.on() {
		pc.stage("footer "+streamKind(dp)+"/"+dp.w.Name(), "f", st.hdr.Key,
			map[string]any{"route": "footer", "figure": fig, "points": len(group)})
	}
}

// serveReplay simulates a replay group by streaming the workload's
// precise recording through one fresh simulator per design point: a
// single decode pass, K per-point cache/approximator instances, no kernel
// arithmetic. Points an earlier pass already replayed are served from the
// replay memo and skip the decode entirely. Any failure (no recording,
// disk or decode error) falls back to executing every point.
func serveReplay(fig string, group []*ctrReq) {
	src := precisePoint(group[0].dp.w, group[0].dp.seed)
	pc := provBegin()
	var pst *gridStream
	if pc.on() {
		// Resolve the artifact identity up front so memo-served points
		// carry it too. The stream is warm whenever the memo has replay
		// entries (both are reset together), so this costs no extra
		// recording.
		pst = ensureStream(src)
	}
	pending := group[:0:0]
	for _, r := range group {
		if res, ok := memoPeek[memsim.Result](memoReplay, r.dp); ok {
			*r.out = res
			traceStats.replayHits.Add(1)
			pc.point(fig, r.label, "ctr", prov.RouteReplay, prov.CounterReplayed,
				r.why, r.dp, pst, provStagesReplay)
			continue
		}
		pending = append(pending, r)
	}
	if len(pending) == 0 {
		if pc.on() {
			pc.stage("replay "+src.w.Name(), "f", pst.hdr.Key,
				map[string]any{"route": "replay", "figure": fig, "points": len(group), "served": "memo"})
		}
		return
	}
	group = pending
	st := ensureStream(src)
	execAll := func(why string) {
		for _, r := range group {
			*r.out = simulate(r.dp).Sim
			traceStats.execPoints.Add(1)
			pc.point(fig, r.label, "ctr", prov.RouteExec, prov.CounterExec,
				why, r.dp, nil, provStagesCtrExec)
		}
		if pc.on() {
			pc.stage("exec "+fig+"/"+src.w.Name(), "", "",
				map[string]any{"route": "exec", "why": why, "points": len(group)})
		}
	}
	if st.path == "" {
		execAll(provWhyNoStream)
		return
	}
	observed := make([]observedSim, len(group))
	sims := make([]*memsim.Sim, len(group))
	for i, r := range group {
		observed[i] = observe(r.dp)
		sims[i] = observed[i].Sim
	}
	f, err := os.Open(st.path)
	if err != nil {
		execAll(provWhyReplayFail)
		return
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err == nil {
		err = memsim.Replay(gr, st.hdr.Instructions, sims)
	}
	if err != nil {
		execAll(provWhyReplayFail)
		return
	}
	for i, r := range group {
		res := sims[i].Result()
		*r.out = res
		// Publish once per memo cell: a racing pass that stored the point
		// first has published it already.
		if memoPut(memoReplay, r.dp, res) {
			eng.publish(res)
		}
		observed[i].publish()
		traceStats.replayPoints.Add(1)
		pc.point(fig, r.label, "ctr", prov.RouteReplay, prov.CounterReplayed,
			r.why, r.dp, st, provStagesReplay)
	}
	traceStats.replayPasses.Add(1)
	if pc.on() {
		_, _, decodedBytes := gr.DecodedStats()
		pc.stage("replay "+src.w.Name(), "f", st.hdr.Key,
			map[string]any{"route": "replay", "figure": fig, "points": len(group), "bytes_decoded": decodedBytes})
	}
}
