// Command lvareport runs every experiment and emits a single Markdown
// report: one section per table/figure with the measured series, the
// paper's reference numbers (where the driver records them as notes), and
// the run's configuration. Useful for regenerating EXPERIMENTS.md-style
// records after changing the simulator.
//
//	lvareport > report.md
//	lvareport -only fig4,fig10
//	lvareport -observe run.json   # render and audit a bundle written by `lvaexp -observe`
//
// With -observe it runs no experiments: it renders the bundle's metrics,
// attribution and provenance sections, and exits 1 when the provenance
// does not reconcile with the engine counters the bundle carries.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"lva/internal/experiments"
	"lva/internal/obs/attr"
	"lva/internal/obs/prov"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	observeIn := flag.String("observe", "", "render and audit the run bundle `file` that lvaexp -observe wrote (runs no experiments)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["observe"] {
		if set["only"] {
			fmt.Fprintln(os.Stderr, "lvareport: -observe renders a finished run and runs no experiments; it cannot be combined with -only")
			os.Exit(2)
		}
		os.Exit(renderObservation(*observeIn))
	}

	// Check every id before running or printing anything, so bad
	// arguments never leave a partial report.
	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if _, ok := experiments.Registry[ids[i]]; !ok {
				fmt.Fprintf(os.Stderr, "lvareport: unknown experiment %q (valid: %v)\n",
					ids[i], experiments.IDs())
				os.Exit(2)
			}
		}
	}

	fmt.Println("# Load Value Approximation — measured results")
	fmt.Println()
	fmt.Printf("Generated by `lvareport`; deterministic (seed %d).\n", experiments.DefaultSeed)
	fmt.Println()

	start := time.Now()
	for _, id := range ids {
		fig := experiments.Registry[id]()
		fmt.Printf("## %s — %s\n\n", fig.ID, fig.Title)
		fmt.Printf("Unit: %s\n\n", fig.ValueUnit)
		fmt.Print(fig.Markdown())
		for _, n := range fig.Notes {
			fmt.Printf("> %s\n", n)
		}
		fmt.Println()
	}
	fmt.Printf("_Total wall time: %v._\n", time.Since(start).Round(time.Millisecond))
	// Without LVA_TRACE_DIR the figures recorded into a per-process
	// directory under $TMPDIR; ResetRunCache deletes it (and leaves a
	// named store alone), so it does not outlive the process.
	experiments.ResetRunCache()
}

// renderObservation renders a run bundle: its metrics table, the
// attribution section and the provenance audit. It returns the process
// exit code: 2 when the bundle cannot be read (nothing is printed), 1 when
// the provenance does not reconcile.
func renderObservation(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvareport:", err)
		return 2
	}
	defer f.Close()
	o, err := experiments.ReadObservation(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvareport: %s: %v\n", path, err)
		return 2
	}
	fmt.Println("# Run bundle")
	fmt.Println()
	fmt.Printf("Bundle `%s`: code version `%s`, %d trace event(s).\n\n", path, o.Code, len(o.TraceEvents))
	fmt.Println("## Metrics")
	fmt.Println()
	fmt.Println("Deterministic subset of the obs registry.")
	fmt.Println()
	fmt.Print(experiments.MetricsSnapshot{Metrics: o.Metrics}.Markdown())
	fmt.Println()
	renderAttribution(o.Attribution)
	return renderProvenance(&o.Provenance)
}

// renderProvenance audits a bundle's provenance: the route-vs-counter
// reconciliation invariant, and a per-figure table of how each figure's
// design points were served. Returns the process exit code — any
// validation problem is an error, because provenance that fails to
// reconcile means the records and the engine counters disagree about what
// actually ran.
func renderProvenance(m *prov.Manifest) int {
	fmt.Println("## Provenance")
	fmt.Println()
	fmt.Printf("%d record(s), %d run-cache call line(s).\n\n", len(m.Records), len(m.Calls))
	s := m.Summary
	fmt.Printf("Evaluations: %d (%d footer, %d replayed, %d executed); %d simulation(s) avoided; %d memo-layer call(s).\n\n",
		s.Evaluations, s.Routes.Footer, s.Routes.Replay, s.Routes.Exec, s.SimsAvoided, s.Calls)
	fmt.Printf("Engine counters: %d recording(s), %d footer point(s), %d replayed point(s), %d executed point(s), %d run-cache lookup(s).\n\n",
		s.Counters.Recordings, s.Counters.FooterPoints, s.Counters.ReplayedPoints,
		s.Counters.ExecPoints, s.Counters.RunCacheLookups)
	fmt.Println("| figure | footer | replay | exec | evaluations | sims avoided |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, fr := range m.PerFigure() {
		fmt.Printf("| %s | %d | %d | %d | %d | %d |\n",
			fr.Figure, fr.Footer, fr.Replay, fr.Exec, fr.Evaluations, fr.SimsAvoided)
	}
	fmt.Println()
	if problems := m.Validate(); len(problems) > 0 {
		fmt.Printf("**%d reconciliation problem(s):**\n\n", len(problems))
		for _, p := range problems {
			fmt.Printf("- %s\n", p)
			fmt.Fprintln(os.Stderr, "lvareport: provenance:", p)
		}
		return 1
	}
	fmt.Println("Route counts reconcile with the engine counters; manifest is internally consistent.")
	return 0
}

// renderAttribution prints one subsection per published scope: the five
// sites with the worst mean relative training error (most loads breaks
// ties; then PC order, so output is deterministic), the epoch drift
// verdict when the scope retained a time-series, and how many epochs the
// scope's ring dropped when it dropped any.
func renderAttribution(scopes []attr.ScopeStats) {
	fmt.Println("## Approximation attribution")
	fmt.Println()
	fmt.Printf("%d scope(s); each scope is one simulated design point (benchmark/attachment/config-hash).\n\n", len(scopes))
	for _, sc := range scopes {
		fmt.Printf("### %s\n\n", sc.Scope)
		sites := append([]attr.SiteStats(nil), sc.Sites...)
		sort.SliceStable(sites, func(i, j int) bool {
			if sites[i].MeanRelErr != sites[j].MeanRelErr {
				return sites[i].MeanRelErr > sites[j].MeanRelErr
			}
			if sites[i].Loads != sites[j].Loads {
				return sites[i].Loads > sites[j].Loads
			}
			return sites[i].PC < sites[j].PC
		})
		if len(sites) > 5 {
			sites = sites[:5]
		}
		fmt.Println("| pc | loads | misses | covered | mean rel err | max rel err | conf +/- |")
		fmt.Println("|---|---|---|---|---|---|---|")
		for _, s := range sites {
			fmt.Printf("| %s | %d | %d | %d | %.4f | %.4f | +%d/-%d |\n",
				s.PC, s.Loads, s.Misses, s.Covered, s.MeanRelErr, s.MaxRelErr, s.ConfGained, s.ConfLost)
		}
		fmt.Println()
		var drift []string
		if ratio, ok := sc.DriftRatio(); ok {
			verdict := "stable"
			switch {
			case ratio > 1.5:
				verdict = "drifting worse (value locality decaying)"
			case ratio < 0.67:
				verdict = "warming up (error shrinking)"
			}
			drift = append(drift, fmt.Sprintf("Error drift (2nd half / 1st half of %d epochs): %.2f — %s.", len(sc.Epochs), ratio, verdict))
		}
		if sc.DroppedEpochs > 0 {
			drift = append(drift, fmt.Sprintf("Truncated: the epoch ring dropped the oldest %d of %d epochs.", sc.DroppedEpochs, sc.TotalEpochs))
		}
		if len(drift) > 0 {
			fmt.Printf("%s\n\n", strings.Join(drift, " "))
		}
	}
}
