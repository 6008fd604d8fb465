// Command lvareport runs every experiment and emits a single Markdown
// report: one section per table/figure with the measured series, the
// paper's reference numbers (where the driver records them as notes), and
// the run's configuration. Useful for regenerating EXPERIMENTS.md-style
// records after changing the simulator.
//
//	lvareport > report.md
//	lvareport -only fig4,fig10
//	lvareport -metrics metrics.json    # append a section for an lvaexp -metrics snapshot
//	lvareport -provenance PROV.json    # audit a manifest written by `lvaexp -manifest`
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"lva/internal/experiments"
	"lva/internal/obs"
	"lva/internal/obs/attr"
	"lva/internal/obs/prov"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	metricsIn := flag.String("metrics", "", "render a metrics snapshot written by `lvaexp -metrics` as a summary table")
	attrOn := flag.Bool("attr", false, "record per-site attribution while running and append a hot-site section per scope")
	provIn := flag.String("provenance", "", "validate a manifest written by `lvaexp -manifest` and render per-figure route counts (runs no experiments)")
	flag.Parse()

	if *provIn != "" {
		os.Exit(renderProvenance(*provIn))
	}

	// Check every id and read the metrics snapshot before running or
	// printing anything, so bad arguments never leave a partial report.
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
	var snap obs.Snapshot
	if *metricsIn != "" {
		b, err := os.ReadFile(*metricsIn)
		if err == nil {
			snap, err = obs.ParseSnapshot(b)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvareport:", err)
			os.Exit(2)
		}
	}
	if *attrOn {
		attr.SetEnabled(true)
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
	if *metricsIn != "" {
		fmt.Println("## Metrics")
		fmt.Println()
		fmt.Printf("Snapshot from `%s` (deterministic subset of the obs registry).\n\n", *metricsIn)
		fmt.Print(snap.Markdown())
		fmt.Println()
	}
	if *attrOn {
		renderAttribution(attr.TakeSnapshot())
	}
	fmt.Printf("_Total wall time: %v._\n", time.Since(start).Round(time.Millisecond))
}

// renderProvenance audits a provenance manifest: schema validation, the
// route-vs-counter reconciliation invariant, and a per-figure table of how
// each figure's design points were served. Returns the process exit code —
// any validation problem is an error, because a manifest that fails to
// reconcile means the provenance records and the engine counters disagree
// about what actually ran.
func renderProvenance(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvareport:", err)
		return 2
	}
	defer f.Close()
	m, err := prov.ReadManifest(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvareport:", err)
		return 2
	}
	fmt.Println("# Run provenance")
	fmt.Println()
	fmt.Printf("Manifest `%s`: code version `%s`, %d record line(s), %d call line(s).\n\n",
		path, m.Header.Code, len(m.Records), len(m.Calls))
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

// renderAttribution appends one subsection per published scope: the five
// sites with the worst mean relative training error (most loads breaks
// ties; then PC order, so output is deterministic) plus the epoch drift
// verdict when the scope retained a time-series.
func renderAttribution(snap attr.Snapshot) {
	fmt.Println("## Approximation attribution")
	fmt.Println()
	fmt.Printf("%d scope(s); each scope is one simulated design point (benchmark/attachment/config-hash).\n\n", len(snap.Scopes))
	for _, sc := range snap.Scopes {
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
		if ratio, ok := sc.DriftRatio(); ok {
			verdict := "stable"
			switch {
			case ratio > 1.5:
				verdict = "drifting worse (value locality decaying)"
			case ratio < 0.67:
				verdict = "warming up (error shrinking)"
			}
			fmt.Printf("Error drift (2nd half / 1st half of %d epochs): %.2f — %s.\n\n", len(sc.Epochs), ratio, verdict)
		}
	}
}
