package experiments

import (
	"fmt"

	"lva/internal/core"
	"lva/internal/memsim"
	"lva/internal/workloads"
)

// ghbSizes are the history depths of Figures 4 and 5.
var ghbSizes = []int{0, 1, 2, 4}

// mpkiValues converts a row of runs into normalized-MPKI values.
func mpkiValues(runs, precise []*RunResult) []float64 {
	out := make([]float64, len(runs))
	for i := range runs {
		out[i] = normalizedMPKI(&runs[i].Sim, &precise[i].Sim)
	}
	return out
}

// errorValues converts a row of runs into output-error values.
func errorValues(runs, precise []*RunResult) []float64 {
	out := make([]float64, len(runs))
	for i := range runs {
		out[i] = ErrorVs(*runs[i], *precise[i])
	}
	return out
}

// normalizedMPKI divides effective MPKI by the precise run's MPKI.
func normalizedMPKI(run, precise *memsim.Result) float64 {
	p := precise.RawMPKI()
	if p == 0 {
		return 0
	}
	return run.EffectiveMPKI() / p
}

// The ctr* twins of the helpers above operate on the bare counter results
// counter rows fill in (counter figures never see an Output).

func ctrMPKIValues(runs, precise []*memsim.Result) []float64 {
	out := make([]float64, len(runs))
	for i := range runs {
		out[i] = normalizedMPKI(runs[i], precise[i])
	}
	return out
}

func ctrFetchValues(runs, precise []*memsim.Result) []float64 {
	out := make([]float64, len(runs))
	for i := range runs {
		out[i] = float64(runs[i].Fetches) / float64(precise[i].Fetches)
	}
	return out
}

// Fig4 reproduces Figure 4: normalized MPKI of LVA vs. an idealized LVP for
// GHB sizes 0, 1, 2 and 4. Expected shape: LVA achieves lower MPKI than LVP
// on average (no exact-match requirement), and MPKI tends to rise with GHB
// size for floating-point-heavy workloads (hash dispersion).
func Fig4() *Figure {
	f := &Figure{
		ID:         "fig4",
		Title:      "LVA vs. idealized LVP for different GHB sizes",
		ValueUnit:  "normalized MPKI (lower is better)",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig4")
	precise := b.ctrPrecise()
	lvpRuns := make([][]*memsim.Result, len(ghbSizes))
	lvaRuns := make([][]*memsim.Result, len(ghbSizes))
	for gi, g := range ghbSizes {
		g := g
		lvpRuns[gi] = b.ctrLVP(fmt.Sprintf("LVP-GHB-%d", g), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.GHBSize = g
			return cfg
		})
		lvaRuns[gi] = b.ctrLVA(fmt.Sprintf("LVA-GHB-%d", g), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.GHBSize = g
			return cfg
		})
	}
	b.run()
	for gi, g := range ghbSizes {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("LVP-GHB-%d", g), Values: ctrMPKIValues(lvpRuns[gi], precise)})
	}
	for gi, g := range ghbSizes {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("LVA-GHB-%d", g), Values: ctrMPKIValues(lvaRuns[gi], precise)})
	}
	f.Notes = append(f.Notes, "paper: LVA achieves lower normalized MPKI than idealized LVP on average; MPKI tends to increase with GHB size")
	return f
}

// Fig5 reproduces Figure 5: output error of LVA for different GHB sizes.
// Expected shape: error around or below 10% for all applications except
// ferret (whose metric is pessimistic), near zero for swaptions and x264.
func Fig5() *Figure {
	f := &Figure{
		ID:         "fig5",
		Title:      "Output error of LVA for different GHB sizes",
		ValueUnit:  "output error (fraction)",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig5")
	precise := b.precise()
	ghbRuns := make([][]*RunResult, len(ghbSizes))
	for gi, g := range ghbSizes {
		g := g
		ghbRuns[gi] = b.lva(fmt.Sprintf("GHB-%d", g), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.GHBSize = g
			return cfg
		})
	}
	b.run()
	for gi, g := range ghbSizes {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("GHB-%d", g), Values: errorValues(ghbRuns[gi], precise)})
	}
	f.Notes = append(f.Notes, "paper: error ~<=10% everywhere but ferret; near-zero for swaptions and x264")
	return f
}

// confidenceWindows are the relaxed windows of Figure 6; 0 is the paper's
// "0% (ideal LVP)" series and -1 its "infinite" window.
var confidenceWindows = []float64{0, 0.05, 0.10, 0.20, -1}

func windowLabel(w float64) string {
	switch {
	case w == 0:
		return "0% (ideal LVP)"
	case w < 0:
		return "infinite"
	default:
		return fmt.Sprintf("%.0f%%", w*100)
	}
}

// Fig6 reproduces Figure 6: MPKI (a) and output error (b) across relaxed
// confidence windows. Both integer and floating-point data employ
// confidence here, per the paper. Expected shape: wider windows reduce
// MPKI monotonically and raise error.
func Fig6() *Figure {
	f := &Figure{
		ID:         "fig6",
		Title:      "Performance and error for varying confidence windows",
		ValueUnit:  "normalized MPKI / error fraction",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig6")
	precise := b.precise()
	winRuns := make([][]*RunResult, len(confidenceWindows))
	for wi, win := range confidenceWindows {
		win := win
		if win == 0 {
			winRuns[wi] = b.lvp("win-ideal-lvp", func(workloads.Workload) core.Config {
				return core.DefaultConfig()
			})
		} else {
			winRuns[wi] = b.lva(fmt.Sprintf("win-%g", win), func(workloads.Workload) core.Config {
				cfg := core.DefaultConfig()
				cfg.Window = win
				cfg.IntConfidence = true // both data kinds use confidence here
				return cfg
			})
		}
	}
	b.run()
	for wi, win := range confidenceWindows {
		f.Rows = append(f.Rows,
			Row{Label: "MPKI " + windowLabel(win), Values: mpkiValues(winRuns[wi], precise)},
			Row{Label: "error " + windowLabel(win), Values: errorValues(winRuns[wi], precise)})
	}
	f.Notes = append(f.Notes, "paper: relaxing the window lowers MPKI and raises error; x264 sees big MPKI cuts at near-zero error; ferret error grows with relaxation")
	return f
}

// valueDelays are the staleness assumptions of Figure 7.
var valueDelays = []int{4, 8, 16, 32}

// Fig7 reproduces Figure 7: MPKI (a) and output error (b) across value
// delays. Expected shape: LVA is resilient — neither MPKI nor error moves
// much, except canneal's error (its swapped coordinates are
// inter-dependent) and coverage collapse for very stale blackscholes.
func Fig7() *Figure {
	f := &Figure{
		ID:         "fig7",
		Title:      "Performance and error for varying value delays",
		ValueUnit:  "normalized MPKI / error fraction",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig7")
	precise := b.precise()
	delayRuns := make([][]*RunResult, len(valueDelays))
	for di, d := range valueDelays {
		d := d
		delayRuns[di] = b.lva(fmt.Sprintf("delay-%d", d), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.ValueDelay = d
			return cfg
		})
	}
	b.run()
	for di, d := range valueDelays {
		f.Rows = append(f.Rows,
			Row{Label: fmt.Sprintf("MPKI delay-%d", d), Values: mpkiValues(delayRuns[di], precise)},
			Row{Label: fmt.Sprintf("error delay-%d", d), Values: errorValues(delayRuns[di], precise)})
	}
	f.Notes = append(f.Notes, "paper: value delay has little impact on MPKI or error for all benchmarks except canneal's error")
	return f
}

// degrees are the approximation/prefetch degrees of Figures 8 and 9.
var degrees = []int{2, 4, 8, 16}

// Fig8 reproduces Figure 8: normalized MPKI (a) and normalized fetches (b)
// for prefetch degrees vs. approximation degrees. Expected shape:
// prefetching cuts MPKI while inflating fetches (up to ~1.7x at degree 16);
// LVA cuts both (fetch reduction ~39% at degree 16); canneal defeats the
// prefetcher entirely.
func Fig8() *Figure {
	f := &Figure{
		ID:         "fig8",
		Title:      "MPKI and fetches for varying approximation and prefetch degrees",
		ValueUnit:  "normalized MPKI / normalized fetches",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig8")
	precise := b.ctrPrecise()
	prefRuns := make([][]*memsim.Result, len(degrees))
	apxRuns := make([][]*memsim.Result, len(degrees))
	for di, d := range degrees {
		d := d
		prefRuns[di] = b.ctrPrefetch(fmt.Sprintf("prefetch-%d", d), d)
		apxRuns[di] = b.ctrLVA(fmt.Sprintf("approx-%d", d), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.Degree = d
			return cfg
		})
	}
	b.run()
	for di, d := range degrees {
		f.Rows = append(f.Rows,
			Row{Label: fmt.Sprintf("MPKI prefetch-%d", d), Values: ctrMPKIValues(prefRuns[di], precise)},
			Row{Label: fmt.Sprintf("fetches prefetch-%d", d), Values: ctrFetchValues(prefRuns[di], precise)})
	}
	for di, d := range degrees {
		f.Rows = append(f.Rows,
			Row{Label: fmt.Sprintf("MPKI approx-%d", d), Values: ctrMPKIValues(apxRuns[di], precise)},
			Row{Label: fmt.Sprintf("fetches approx-%d", d), Values: ctrFetchValues(apxRuns[di], precise)})
	}
	f.Notes = append(f.Notes,
		"paper: prefetch-16 increases fetched blocks by ~73% on average while LVA-16 reduces them by ~39%",
		"paper: canneal's random access defeats the prefetcher (no MPKI reduction at any degree)")
	return f
}

// Fig9 reproduces Figure 9: LVA output error for approximation degrees
// 0..16. Expected shape: error grows with degree (less frequent training).
func Fig9() *Figure {
	f := &Figure{
		ID:         "fig9",
		Title:      "LVA output error with different approximation degrees",
		ValueUnit:  "output error (fraction)",
		Benchmarks: workloads.Names(),
	}
	allDegrees := append([]int{0}, degrees...)
	b := newBatch("fig9")
	precise := b.precise()
	degRuns := make([][]*RunResult, len(allDegrees))
	for di, d := range allDegrees {
		d := d
		degRuns[di] = b.lva(fmt.Sprintf("approx-%d", d), func(w workloads.Workload) core.Config {
			cfg := BaselineFor(w)
			cfg.Degree = d
			return cfg
		})
	}
	b.run()
	for di, d := range allDegrees {
		f.Rows = append(f.Rows, Row{Label: fmt.Sprintf("approx-%d", d), Values: errorValues(degRuns[di], precise)})
	}
	f.Notes = append(f.Notes, "paper: higher approximation degree trains less often and increases output error")
	return f
}

// Fig12 reproduces Figure 12: the number of static (distinct) PC values
// that access approximate data. Expected shape: small counts everywhere
// (the paper's max is ~300, for x264), motivating small approximator
// tables.
func Fig12() *Figure {
	f := &Figure{
		ID:         "fig12",
		Title:      "Number of static (distinct) PCs issuing approximate loads",
		ValueUnit:  "count",
		Benchmarks: workloads.Names(),
	}
	b := newBatch("fig12")
	runs := b.ctrLVA("lva", BaselineFor)
	b.run()
	row := Row{Label: "static approx load PCs"}
	for _, r := range runs {
		row.Values = append(row.Values, float64(r.StaticPCs))
	}
	f.Rows = []Row{row}
	f.Notes = append(f.Notes, "paper: at most ~300 static approximate loads (x264); small tables suffice")
	return f
}

// mantissaLosses are the precision reductions of Figure 13.
var mantissaLosses = []int{0, 5, 11, 17, 23}

// Fig13 reproduces Figure 13: fluidanimate's normalized MPKI as
// floating-point mantissa bits are dropped from the approximator's history
// (GHB size 2, confidence disabled). Expected shape: MPKI falls as bits
// are removed (better value locality in the hash).
func Fig13() *Figure {
	fl := workloads.NewFluidanimate()
	f := &Figure{
		ID:         "fig13",
		Title:      "fluidanimate MPKI vs. floating-point precision loss (GHB 2, confidence off)",
		ValueUnit:  "normalized MPKI",
		Benchmarks: []string{fl.Name()},
	}
	b := newBatch("fig13")
	precise := b.ctrPoint("precise/"+fl.Name(), precisePoint(fl, DefaultSeed))
	lossRuns := make([]*memsim.Result, len(mantissaLosses))
	for bi, bits := range mantissaLosses {
		cfg := core.DefaultConfig()
		cfg.GHBSize = 2
		cfg.Window = -1 // confidence disabled (never rejects)
		cfg.MantissaLoss = bits
		lossRuns[bi] = b.ctrPoint(fmt.Sprintf("loss-%d", bits), lvaPoint(fl, cfg, DefaultSeed))
	}
	b.run()
	for bi, bits := range mantissaLosses {
		f.Rows = append(f.Rows, Row{
			Label:  fmt.Sprintf("loss-%d bits", bits),
			Values: []float64{normalizedMPKI(lossRuns[bi], precise)},
		})
	}
	f.Notes = append(f.Notes, "paper: removing mantissa bits improves hash value locality, so MPKI goes down; error stays ~10%")
	return f
}

// Fig1 reproduces Figure 1 quantitatively: bodytrack's output under precise
// vs. approximate execution. The examples/vision program renders the actual
// images; here we report the per-frame trajectory deviation (the paper
// quotes 7.7% output error for its rendering).
func Fig1() *Figure {
	bt := workloads.NewBodytrack()
	f := &Figure{
		ID:         "fig1",
		Title:      "bodytrack output: precise vs. LVA (trajectory deviation)",
		ValueUnit:  "fraction of image diagonal",
		Benchmarks: []string{bt.Name()},
	}
	b := newBatch("fig1")
	precise := b.runPoint("precise", precisePoint(bt, DefaultSeed))
	run := b.runPoint("lva", lvaPoint(bt, BaselineFor(bt), DefaultSeed))
	b.run()
	f.Rows = append(f.Rows, Row{Label: "output error", Values: []float64{ErrorVs(*run, *precise)}})
	f.Rows = append(f.Rows, Row{Label: "coverage", Values: []float64{run.Sim.Coverage()}})
	f.Notes = append(f.Notes, "run examples/vision to render the precise and approximate tracking overlays as PGM images")
	return f
}
