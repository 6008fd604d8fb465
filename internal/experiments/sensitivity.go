package experiments

import (
	"fmt"

	"lva/internal/fullsys"
	"lva/internal/workloads"
)

// ExtMLP is a full-system sensitivity study the paper's §VI-E observation
// invites: canneal speeds up more than its miss-latency reduction alone
// suggests because "the out-of-order processor is unable to fully mask the
// miss latency". Here we vary how much latency the core can hide — the
// ROB depth and the MSHR count — and measure LVA's degree-0 speedup under
// each. Expected shape: the more latency the baseline machine already
// hides (bigger ROB/more MSHRs), the smaller LVA's speedup; conversely a
// narrow machine benefits most.
func ExtMLP() *Figure {
	f := &Figure{
		ID:         "ext-mlp",
		Title:      "LVA speedup sensitivity to ROB depth and MSHR count (degree 0)",
		ValueUnit:  "speedup fraction",
		Benchmarks: workloads.Names(),
	}

	type machine struct {
		label string
		rob   int
		mshrs int
	}
	machines := []machine{
		{"ROB-16/MSHR-4", 16, 4},
		{"ROB-32/MSHR-8", 32, 8}, // paper Table II
		{"ROB-64/MSHR-16", 64, 16},
	}

	// Each machine contributes a precise and a degree-0 LVA configuration.
	rs := fullsysAll(func(w workloads.Workload) []fullsys.Config {
		var cfgs []fullsys.Config
		for _, m := range machines {
			base := fullsys.DefaultConfig()
			base.ROB = m.rob
			base.MSHRs = m.mshrs
			acfg := BaselineFor(w)
			acfg.ValueDelay = 1
			lvaCfg := base
			lvaCfg.Approx = &acfg
			cfgs = append(cfgs, base, lvaCfg)
		}
		return cfgs
	})
	for mi, m := range machines {
		row := Row{Label: m.label}
		for _, r := range rs {
			precise, lva := r[2*mi], r[2*mi+1]
			row.Values = append(row.Values, float64(precise.Cycles)/float64(lva.Cycles)-1)
		}
		f.Rows = append(f.Rows, row)
	}
	f.Notes = append(f.Notes,
		"paper §VI-E: canneal's simple cost computation defeats the OoO engine's latency hiding, so LVA helps it most",
		fmt.Sprintf("middle row is the paper's Table II machine (%d-entry ROB)", fullsys.DefaultConfig().ROB))
	return f
}
