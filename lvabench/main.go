// Command lvabench is the repository benchmark. It regenerates one fixed
// group of figures (a workload) through the public experiments.RunAll path,
// starting every iteration from an explicit start state, checks each figure
// against the golden hashes, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash lvabench/run.sh --workload phase2 --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the run repeats the workload until --seconds is used up and
// reports the median host cost per iteration (wall_s, cpu_s, alloc_mb,
// allocs_m, setup_s). With --trace 1 it instead makes one traced pass: the
// workload once, each of its figures alone, then the layers driven directly
// on recorded streams, and reports the per-layer metrics.
//
// Load model: one process, closed loop, one caller. experiments.Parallelism
// equals GOMAXPROCS, which is capped at the number of CPUs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lva/internal/experiments"
)

// Paths are relative to the repository root, where the benchmark runs.
const (
	goldenPath = "internal/experiments/testdata/figure_hashes.json"
	workDir    = ".bench_build/lvabench"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records the conditions a run measured under.
type env struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Trace       int     `json:"trace"`
	Parallelism int     `json:"parallelism"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	ProbeMS     float64 `json:"host_probe_ms"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lvabench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", experiments.DefaultSeed, "seed for the traced run's direct layer drives")
	seconds := flag.Int("seconds", 30, "measuring time of an untraced run")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()

	wl, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	for _, id := range wl.figures {
		if golden[id] == "" {
			return fmt.Errorf("%s has no golden hash for %s", goldenPath, id)
		}
	}

	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	experiments.Parallelism = runtime.GOMAXPROCS(0)
	e := env{
		Workload:    wl.name,
		Seed:        *seed,
		Trace:       *traced,
		Parallelism: experiments.Parallelism,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		ProbeMS:     hostProbe(*seed),
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	st, err := newStartState(workDir)
	if err != nil {
		return err
	}
	defer st.close()

	var (
		res    result
		counts map[string]uint64
		detail map[string]any
	)
	if *traced == 1 {
		res, counts, detail, err = tracedRun(wl, st, golden, *seed, e)
	} else {
		res, counts, detail, err = timedRun(wl, st, golden, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}

	ledger := filepath.Join(workDir, "runs.jsonl")
	key := ledgerKey(wl.name, *traced, *seed)
	devs, err := checkLedger(ledger, key, counts)
	if err != nil {
		return err
	}
	for _, d := range devs {
		fmt.Fprintln(os.Stderr, "lvabench: count deviation:", d)
	}
	detail["env"] = e
	detail["counts"] = counts
	detail["count_deviations"] = devs
	if err := appendLedger(ledger, key, counts, detail); err != nil {
		return err
	}

	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Printf("lvabench detail: %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
