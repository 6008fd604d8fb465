package experiments

import (
	"fmt"

	"lva/internal/core"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/workloads"
)

// Ablations beyond the paper's figures, covering design choices the paper
// discusses but does not plot: approximator table size and associativity
// (§VII-A hardware budget, §VI-A aliasing), the LHB computation function
// (§VI: "we tried different LHB functions such as strides and deltas and
// found average to be most accurate"), the proportional-confidence
// future-work optimization (§III-B), and the deprioritized low-power
// training lane (§VI-C).

// ablationTableSizes sweeps the approximator-table capacity.
var ablationTableSizes = []int{64, 128, 256, 512, 1024}

// AblationTable sweeps approximator-table entries (direct-mapped) and, at
// the baseline 512 entries, associativity. Expected shape: performance
// saturates at small tables (Figure 12 shows at most ~300 static
// approximate PCs), so even 64-256 entries retain most of the benefit;
// associativity helps the FP workloads that suffer hash aliasing.
func AblationTable() *Figure {
	f := &Figure{
		ID:         "ablation-table",
		Title:      "Approximator table size and associativity",
		ValueUnit:  "normalized MPKI",
		Benchmarks: workloads.Names(),
	}
	ablationWays := []int{2, 4}
	b := newBatch("ablation-table")
	precise := b.ctrPrecise()
	sizeRuns := make([][]*memsim.Result, len(ablationTableSizes))
	for si, entries := range ablationTableSizes {
		entries := entries
		sizeRuns[si] = b.ctrLVA(fmt.Sprintf("entries-%d", entries), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.TableEntries = entries
			return cfg
		})
	}
	wayRuns := make([][]*memsim.Result, len(ablationWays))
	for wi, ways := range ablationWays {
		ways := ways
		wayRuns[wi] = b.ctrLVA(fmt.Sprintf("ways-%d", ways), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.TableWays = ways
			return cfg
		})
	}
	b.run()
	for si, entries := range ablationTableSizes {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("entries-%d", entries), Values: ctrMPKIValues(sizeRuns[si], precise)})
	}
	for wi, ways := range ablationWays {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("512-entries-%d-way", ways), Values: ctrMPKIValues(wayRuns[wi], precise)})
	}
	f.Notes = append(f.Notes, "paper §VII-A: the table only needs to hold ~300 entries; LVA is feasible on a small hardware budget")
	return f
}

// AblationCompute compares the LHB computation functions. Expected shape:
// average wins on error (the paper's finding); last-value is competitive
// for run-structured data; stride overshoots on non-linear streams.
func AblationCompute() *Figure {
	f := &Figure{
		ID:         "ablation-compute",
		Title:      "LHB computation function f: average vs last-value vs stride",
		ValueUnit:  "normalized MPKI / error fraction",
		Benchmarks: workloads.Names(),
	}
	kinds := []core.ComputeKind{core.ComputeAverage, core.ComputeLast, core.ComputeStride}
	b := newBatch("ablation-compute")
	precise := b.precise()
	kindRuns := make([][]*RunResult, len(kinds))
	for ki, kind := range kinds {
		kind := kind
		kindRuns[ki] = b.lva(kind.String(), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.Compute = kind
			return cfg
		})
	}
	b.run()
	for ki, kind := range kinds {
		f.Rows = append(f.Rows,
			Row{Label: "MPKI " + kind.String(), Values: mpkiValues(kindRuns[ki], precise)},
			Row{Label: "error " + kind.String(), Values: errorValues(kindRuns[ki], precise)})
	}
	f.Notes = append(f.Notes, "paper §VI: average was found the most accurate computation function")
	return f
}

// AblationLHB sweeps the local-history-buffer depth. Expected shape: a
// single-entry LHB (last-value approximation) loses accuracy for noisy FP
// data, deep LHBs smooth too much and react slowly to run boundaries; the
// paper's 4 entries sit at the knee.
func AblationLHB() *Figure {
	f := &Figure{
		ID:         "ablation-lhb",
		Title:      "Local history buffer depth",
		ValueUnit:  "normalized MPKI / error fraction",
		Benchmarks: workloads.Names(),
	}
	depths := []int{1, 2, 4, 8}
	b := newBatch("ablation-lhb")
	precise := b.precise()
	depthRuns := make([][]*RunResult, len(depths))
	for di, depth := range depths {
		depth := depth
		depthRuns[di] = b.lva(fmt.Sprintf("lhb-%d", depth), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.LHBSize = depth
			return cfg
		})
	}
	b.run()
	for di, depth := range depths {
		f.Rows = append(f.Rows,
			Row{Label: fmt.Sprintf("MPKI lhb-%d", depth), Values: mpkiValues(depthRuns[di], precise)},
			Row{Label: fmt.Sprintf("error lhb-%d", depth), Values: errorValues(depthRuns[di], precise)})
	}
	f.Notes = append(f.Notes, "paper Table II: 4 LHB entries; average over a short window balances accuracy and reactivity")
	return f
}

// AblationConfidence evaluates the §III-B future-work optimization:
// adjusting the confidence counter by more than one when the approximation
// is far outside the window. Expected shape: same-or-better error at
// slightly lower coverage (bad entries are quarantined faster).
func AblationConfidence() *Figure {
	f := &Figure{
		ID:         "ablation-conf",
		Title:      "Proportional confidence updates (§III-B future work)",
		ValueUnit:  "coverage fraction / error fraction",
		Benchmarks: workloads.Names(),
	}
	props := []bool{false, true}
	b := newBatch("ablation-conf")
	precise := b.precise()
	propRuns := make([][]*RunResult, len(props))
	for pi, prop := range props {
		prop := prop
		label := "step-1"
		if prop {
			label = "proportional"
		}
		propRuns[pi] = b.lva(label, func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.IntConfidence = true // give the counter authority everywhere
			cfg.ProportionalConfidence = prop
			return cfg
		})
	}
	b.run()
	for pi, prop := range props {
		label := "step-1"
		if prop {
			label = "proportional"
		}
		covRow := Row{Label: "coverage " + label}
		for _, r := range propRuns[pi] {
			covRow.Values = append(covRow.Values, r.Sim.Coverage())
		}
		f.Rows = append(f.Rows, covRow,
			Row{Label: "error " + label, Values: errorValues(propRuns[pi], precise)})
	}
	return f
}

// ExtLane evaluates the §VI-C optimization: training fetches ride a
// deprioritized, low-power NoC lane plus slower memory. Expected shape:
// speedup essentially unchanged (training is off the critical path; LVA is
// resilient to the extra value delay) while NoC fetch energy drops.
func ExtLane() *Figure {
	f := &Figure{
		ID:         "ext-lane",
		Title:      "Low-power training lane (§VI-C): speedup and energy impact",
		ValueUnit:  "speedup fraction / energy-savings fraction",
		Benchmarks: workloads.Names(),
	}
	const degree = 4
	lanes := []*fullsys.TrainingLaneConfig{nil, fullsys.DefaultTrainingLane()}
	rs := fullsysAll(func(w workloads.Workload) []fullsys.Config {
		cfgs := []fullsys.Config{fullsys.DefaultConfig()}
		for _, lane := range lanes {
			acfg := BaselineFor(w)
			acfg.Degree = degree
			acfg.ValueDelay = 1
			cfg := fullsys.DefaultConfig()
			cfg.Approx = &acfg
			cfg.TrainingLane = lane
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	})
	speedFast := Row{Label: "speedup fast-lane"}
	speedSlow := Row{Label: "speedup slow-lane"}
	enFast := Row{Label: "energy savings fast-lane"}
	enSlow := Row{Label: "energy savings slow-lane"}
	for _, r := range rs {
		precise, fast, slow := r[0], r[1], r[2]
		speedFast.Values = append(speedFast.Values, float64(precise.Cycles)/float64(fast.Cycles)-1)
		speedSlow.Values = append(speedSlow.Values, float64(precise.Cycles)/float64(slow.Cycles)-1)
		enFast.Values = append(enFast.Values, 1-fast.Energy.TotalPJ()/precise.Energy.TotalPJ())
		enSlow.Values = append(enSlow.Values, 1-slow.Energy.TotalPJ()/precise.Energy.TotalPJ())
	}
	f.Rows = []Row{speedFast, speedSlow, enFast, enSlow}
	f.Notes = append(f.Notes, "paper §VI-C: LVA's value-delay resilience lets approximate fetches take slow, low-energy paths without hurting performance")
	return f
}
