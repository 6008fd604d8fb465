// Command lvaexp regenerates the paper's tables and figures. Each
// experiment id maps to one table/figure of the evaluation (§VI):
//
//	lvaexp table1                  # Table I
//	lvaexp fig4 fig5               # selected figures
//	lvaexp all                     # everything (phase 1 + full-system)
//	lvaexp -observe run.json fig12 # also write the run bundle
//
// The output rows/series mirror what the paper plots; EXPERIMENTS.md
// records the paper-vs-measured comparison. -observe turns every observer
// on and writes one JSON run bundle: a Chrome trace-event timeline (it
// opens in Perfetto) followed by the deterministic metrics, per-site
// attribution and provenance sections that lvareport -observe renders.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lva/internal/experiments"
	"lva/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lvaexp [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %v, or 'all'\n", experiments.IDs())
		flag.PrintDefaults()
	}
	verbose := flag.Bool("v", false, "print total timing and run-cache statistics")
	format := flag.String("format", "table", "output format: table|csv|json|chart")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	progress := flag.Bool("progress", false, "print live per-figure progress to stderr")
	observeOut := flag.String("observe", "", "turn every observer on and write the run bundle (JSON: timeline, metrics, attribution, provenance) to `file`")
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
	// The bundle file is created, and the observers turned on, before
	// anything simulates: an unwritable path is an argument error rather
	// than a failure after the whole run.
	var bundle *os.File
	if *observeOut != "" {
		f, err := os.Create(*observeOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvaexp: -observe: %v\n", err)
			os.Exit(2)
		}
		bundle = f
		experiments.Observe() // the observers stay on until the process exits
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
	// simulates every shared design point exactly once. From here on every
	// exit goes through exit, which deletes the run's trace store.
	start := time.Now()
	figs, err := experiments.RunAll(ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvaexp:", err)
		exit(2)
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
				exit(1)
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
		fmt.Fprintf(os.Stderr, "lvaexp: grid traces: %d recorded, %d point(s) footer-served, %d replayed in %d pass(es) (+%d memo hits), %d executed; %d stream(s) recaptured by a second kernel execution\n",
			t.Recordings, t.HeaderHits, t.ReplayPoints, t.ReplayPasses, t.ReplayHits, t.ExecPoints, t.Recaptures)
	}
	if bundle != nil {
		err := experiments.WriteObservation(bundle)
		if cerr := bundle.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvaexp: write run bundle:", err)
			exit(1)
		}
	}
	exit(0)
}

// exit ends a process whose experiments have started. Without
// LVA_TRACE_DIR the run records into a per-process directory under
// $TMPDIR; ResetRunCache deletes it (and leaves a named store alone), so
// it does not outlive the process. Call it only after the outputs that
// read the engine counters (-v, -observe) are written.
func exit(code int) {
	experiments.ResetRunCache()
	os.Exit(code)
}
