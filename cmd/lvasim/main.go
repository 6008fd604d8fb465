// Command lvasim runs one benchmark kernel under one memory-hierarchy
// configuration and reports MPKI, coverage, fetches and output error
// against a precise run of the same seed.
//
// Usage:
//
//	lvasim -bench canneal -attach lva -degree 4
//	lvasim -bench all -attach lvp -ghb 2
package main

import (
	"flag"
	"fmt"
	"os"

	"lva/internal/core"
	"lva/internal/experiments"
	"lva/internal/obs"
	"lva/internal/prefetch"
	"lva/internal/stats"
	"lva/internal/workloads"
)

func main() {
	var (
		bench    = flag.String("bench", "all", "benchmark name or 'all'")
		attach   = flag.String("attach", "lva", "attachment: precise|lva|lvp|prefetch")
		ghb      = flag.Int("ghb", 0, "global history buffer size")
		window   = flag.Float64("window", 0.10, "confidence window (fraction; -1 = infinite)")
		intConf  = flag.Bool("intconf", false, "apply confidence to integer data too")
		degree   = flag.Int("degree", 0, "approximation degree (lva) or prefetch degree")
		delay    = flag.Int("delay", 4, "value delay in load instructions")
		mantissa = flag.Int("mantissa", 0, "floating-point mantissa bits dropped")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "workload input seed")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprof != "" {
		addr, err := obs.ServeDebug(*pprof)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lvasim: debug server on http://%s/debug/pprof/\n", addr)
	}

	var ws []workloads.Workload
	if *bench == "all" {
		ws = workloads.All()
	} else {
		w, err := workloads.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []workloads.Workload{w}
	}

	// Build and check the configuration before simulating anything, so an
	// out-of-range flag exits with an error instead of a panic mid-run.
	var simulate func(workloads.Workload) experiments.RunResult
	switch *attach {
	case "precise":
	case "lva", "lvp":
		cfg := core.DefaultConfig()
		cfg.GHBSize = *ghb
		cfg.Window = *window
		cfg.IntConfidence = *intConf
		cfg.Degree = *degree
		cfg.ValueDelay = *delay
		cfg.MantissaLoss = *mantissa
		if err := cfg.Validate(); err != nil {
			fail(err)
		}
		simulate = func(w workloads.Workload) experiments.RunResult {
			if *attach == "lva" {
				return experiments.RunLVA(w, cfg, *seed)
			}
			return experiments.RunLVP(w, cfg, *seed)
		}
	case "prefetch":
		cfg := prefetch.DefaultConfig()
		cfg.Degree = *degree
		if err := cfg.Validate(); err != nil {
			fail(err)
		}
		simulate = func(w workloads.Workload) experiments.RunResult {
			return experiments.RunPrefetch(w, *degree, *seed)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown attachment %q\n", *attach)
		os.Exit(2)
	}

	tbl := stats.NewTable("", "benchmark", "attach", "insts", "loadMPKI", "effMPKI", "coverage", "fetches", "error")
	for _, w := range ws {
		precise := experiments.RunPrecise(w, *seed)
		run := precise
		if simulate != nil {
			run = simulate(w)
		}

		errFrac := 0.0
		if *attach != "precise" {
			errFrac = experiments.ErrorVs(run, precise)
		}
		tbl.AddRow(
			w.Name(), *attach,
			fmt.Sprintf("%d", run.Sim.Instructions),
			fmt.Sprintf("%.3f", run.Sim.RawMPKI()),
			fmt.Sprintf("%.3f", run.Sim.EffectiveMPKI()),
			stats.Percent(run.Sim.Coverage()),
			fmt.Sprintf("%d", run.Sim.Fetches),
			stats.Percent(errFrac),
		)
	}
	fmt.Print(tbl)
}

// fail reports a usage or configuration error and exits with status 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "lvasim:", err)
	os.Exit(2)
}
