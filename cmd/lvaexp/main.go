// Command lvaexp regenerates the paper's tables and figures. Each
// experiment id maps to one table/figure of the evaluation (§VI):
//
//	lvaexp table1         # Table I
//	lvaexp fig4 fig5      # selected figures
//	lvaexp all            # everything (phase 1 + full-system)
//
// The output rows/series mirror what the paper plots; EXPERIMENTS.md
// records the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lva/internal/experiments"
	"lva/internal/obs"
	"lva/internal/obs/attr"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lvaexp [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %v, or 'all'\n", experiments.IDs())
		flag.PrintDefaults()
	}
	verbose := flag.Bool("v", false, "print total timing and run-cache statistics")
	format := flag.String("format", "table", "output format: table|csv|json|chart")
	metricsOut := flag.String("metrics", "", "write a deterministic metrics snapshot (JSON) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	progress := flag.Bool("progress", false, "print live per-figure progress to stderr")
	timelineOut := flag.String("timeline", "", "capture a Chrome trace-event run timeline (load in Perfetto) to this file")
	attrOut := flag.String("attr", "", "write a per-site/per-epoch attribution snapshot (JSON) to this file")
	attrWindow := flag.Int("attr-window", 0, "epoch window in annotated loads for -attr time-series (0 = default, <0 = sites only)")
	manifestOut := flag.String("manifest", "", "record run provenance and write the NDJSON manifest to this file")
	flag.Parse()

	// Reject bad arguments before anything simulates or records: a run
	// can fill LVA_TRACE_DIR with recordings before its first figure
	// renders.
	switch *format {
	case "table", "csv", "json", "chart":
	default:
		fmt.Fprintf(os.Stderr, "lvaexp: unknown format %q\n", *format)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ids []string
	for _, a := range args {
		if a == "all" {
			ids = experiments.IDs()
			break
		}
		ids = append(ids, a)
	}
	for _, id := range ids {
		if _, ok := experiments.Registry[id]; !ok {
			fmt.Fprintf(os.Stderr, "lvaexp: unknown experiment %q (valid: %v)\n", id, experiments.IDs())
			os.Exit(2)
		}
	}

	// -metrics implies full instrumentation: enable before any simulator is
	// constructed so the hot-path seams wire up. -attr likewise enables the
	// flight recorder before the first run.
	if *metricsOut != "" || *pprofAddr != "" {
		obs.SetEnabled(true)
	}
	if *attrOut != "" {
		if *attrWindow != 0 {
			attr.SetEpochWindow(*attrWindow)
		}
		attr.SetEnabled(true)
	}
	if *timelineOut != "" {
		experiments.StartTimeline()
	}
	if *manifestOut != "" {
		experiments.EnableProvenance()
	}
	if *pprofAddr != "" {
		addr, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "lvaexp: debug server on http://%s/debug/pprof/\n", addr)
	}
	if *progress {
		cancel := obs.OnEvent(obs.NewProgressPrinter(os.Stderr))
		defer cancel()
	}

	// All requested experiments run concurrently: points from different
	// figures interleave through the shared gate, and the run cache
	// simulates every shared design point exactly once.
	start := time.Now()
	figs, err := experiments.RunAll(ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvaexp:", err)
		os.Exit(2)
	}
	for _, fig := range figs {
		switch *format {
		case "table":
			fmt.Println(fig.String())
		case "csv":
			fmt.Print(fig.CSV())
		case "json":
			out, err := fig.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "lvaexp:", err)
				os.Exit(1)
			}
			fmt.Println(out)
		case "chart":
			fmt.Println(fig.Chart())
		}
	}
	if *verbose {
		s := experiments.RunCacheCounters()
		fmt.Fprintf(os.Stderr, "lvaexp: %d experiment(s) in %v; %d kernel simulation(s), %d run-cache hit(s) (%.1f%% dedup)\n",
			len(figs), time.Since(start).Round(time.Millisecond), s.Simulated, s.Hits, 100*s.DedupFraction())
		t := experiments.TraceCounters()
		fmt.Fprintf(os.Stderr, "lvaexp: grid traces: %d recorded, %d point(s) footer-served, %d replayed in %d pass(es) (+%d memo hits), %d executed\n",
			t.Recordings, t.HeaderHits, t.ReplayPoints, t.ReplayPasses, t.ReplayHits, t.ExecPoints)
	}
	if *metricsOut != "" {
		b, err := obs.Default().Snapshot(false).JSON()
		if err == nil {
			err = os.WriteFile(*metricsOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp: write metrics:", err)
			os.Exit(1)
		}
	}
	if *timelineOut != "" {
		b, err := experiments.TimelineJSON()
		if err == nil {
			err = os.WriteFile(*timelineOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp: write timeline:", err)
			os.Exit(1)
		}
		experiments.StopTimeline()
	}
	if *attrOut != "" {
		b, err := attr.TakeSnapshot().JSON()
		if err == nil {
			err = os.WriteFile(*attrOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp: write attribution:", err)
			os.Exit(1)
		}
	}
	if *manifestOut != "" {
		f, err := os.Create(*manifestOut)
		if err == nil {
			err = experiments.WriteProvManifest(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp: write manifest:", err)
			os.Exit(1)
		}
	}
}
