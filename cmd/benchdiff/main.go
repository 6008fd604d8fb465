// Command benchdiff compares two benchmark snapshots produced by
// `./ci.sh bench` (go test -json event streams) and prints per-benchmark
// wall-time and allocation deltas.
//
//	benchdiff [-max-regress 0.15] [-min-ns 1000000] [-warn-only] OLD.json NEW.json
//	benchdiff NEW.json             # baseline = newest committed BENCH_*.json
//
// It exits nonzero when any benchmark slower than -min-ns regresses by more
// than -max-regress in ns/op, or grows allocs/op by more than
// -max-alloc-regress on a benchmark allocating at least -min-allocs, or
// allocates at all on a benchmark whose baseline allocates nothing, so
// `./ci.sh bench -baseline OLD.json` is a local perf gate. Other benchmarks
// under the floors are reported but never gate: at nanosecond scale a
// shared machine's scheduler noise exceeds any sensible bound, and tiny
// allocation counts jump by whole-number steps. Allocation counts, unlike
// wall time, are deterministic — so the alloc gate holds even on noisy
// runners. -warn-only downgrades failures to warnings for CI, where runners
// are noisy and heterogeneous.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// newestCommittedBaseline picks the baseline for single-argument runs:
// the lexically last committed BENCH_*.json (stamps are UTC and sort
// chronologically), asking git for tracked files and falling back to a
// directory glob outside a work tree. The fresh snapshot itself is
// excluded; "" with nil error means no baseline exists yet.
func newestCommittedBaseline(newPath string) (string, error) {
	var candidates []string
	if out, err := exec.Command("git", "ls-files", "BENCH_*.json").Output(); err == nil {
		for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if l != "" {
				candidates = append(candidates, l)
			}
		}
	} else {
		g, gerr := filepath.Glob("BENCH_*.json")
		if gerr != nil {
			return "", gerr
		}
		candidates = g
	}
	na, _ := filepath.Abs(newPath)
	kept := candidates[:0]
	for _, c := range candidates {
		if ca, _ := filepath.Abs(c); ca == na {
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return "", nil
	}
	sort.Strings(kept)
	return kept[len(kept)-1], nil
}

type result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	hasMem      bool
}

type event struct {
	Action string
	Test   string
	Output string
}

// parseSnapshot extracts benchmark results from a go test -json stream.
// The benchmark name comes from the event's Test field (the printed line
// may omit it when tabwriter splits name and values across events); the
// measurements come from scanning "value unit" pairs in the output line.
func parseSnapshot(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate trailing junk; snapshots are advisory artifacts
		}
		if ev.Action != "output" || !strings.HasPrefix(ev.Test, "Benchmark") ||
			!strings.Contains(ev.Output, "ns/op") {
			continue
		}
		r, ok := parseBenchLine(ev.Output)
		if ok {
			out[ev.Test] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}

func parseBenchLine(line string) (result, bool) {
	var r result
	fields := strings.Fields(line)
	seen := false
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			continue
		}
		switch fields[i] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
			r.hasMem = true
		case "allocs/op":
			r.AllocsPerOp = v
			r.hasMem = true
		}
	}
	return r, seen
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.15,
		"fail when ns/op regresses by more than this fraction")
	minNs := flag.Float64("min-ns", 1e6,
		"only benchmarks at least this many ns/op can fail the gate")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25,
		"fail when allocs/op grows by more than this fraction")
	minAllocs := flag.Float64("min-allocs", 1000,
		"only benchmarks with at least this many allocs/op can fail the alloc gate")
	warnOnly := flag.Bool("warn-only", false,
		"report regressions but always exit 0 (for noisy CI runners)")
	flag.Parse()
	var oldPath, newPath string
	switch flag.NArg() {
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	case 1:
		newPath = flag.Arg(0)
		var err error
		oldPath, err = newestCommittedBaseline(newPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if oldPath == "" {
			fmt.Println("benchdiff: no committed BENCH_*.json baseline found; nothing to compare (first snapshot?)")
			return
		}
		fmt.Printf("benchdiff: auto-selected baseline %s (newest committed BENCH_*.json)\n", oldPath)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] [OLD.json] NEW.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	oldRes, err := parseSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRes, err := parseSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		if _, ok := newRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: snapshots share no benchmarks")
		os.Exit(2)
	}

	fmt.Printf("%-40s %14s %14s %8s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs o→n")
	failed := 0
	for _, name := range names {
		o, n := oldRes[name], newRes[name]
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		mark := ""
		if delta > *maxRegress {
			if o.NsPerOp >= *minNs {
				failed++
				mark = "  REGRESSION"
			} else {
				mark = "  (noise-scale, not gated)"
			}
		}
		allocs := ""
		if o.hasMem || n.hasMem {
			allocs = fmt.Sprintf("%.0f→%.0f", o.AllocsPerOp, n.AllocsPerOp)
		}
		if o.hasMem && n.hasMem && o.AllocsPerOp == 0 && n.AllocsPerOp > 0 {
			failed++
			mark += "  ALLOC REGRESSION (was allocation-free)"
		} else if o.hasMem && n.hasMem && o.AllocsPerOp > 0 &&
			(n.AllocsPerOp-o.AllocsPerOp)/o.AllocsPerOp > *maxAllocRegress {
			if o.AllocsPerOp >= *minAllocs {
				failed++
				mark += "  ALLOC REGRESSION"
			} else if mark == "" {
				mark = "  (alloc growth below floor, not gated)"
			}
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%% %12s%s\n",
			name, o.NsPerOp, n.NsPerOp, delta*100, allocs, mark)
	}

	// Coverage warnings: a benchmark present in only one snapshot can't be
	// compared, which usually means it was renamed, deleted, or the run was
	// truncated. Warn in both directions (never gate — a rename is not a
	// regression) so a silently shrinking benchmark suite is visible.
	warnMissing(oldRes, newRes, "missing from new snapshot (deleted or renamed?)")
	warnMissing(newRes, oldRes, "missing from baseline (new benchmark, no comparison)")

	if failed > 0 {
		fmt.Printf("benchdiff: %d benchmark(s) regressed beyond %.0f%% ns/op or %.0f%% allocs/op\n",
			failed, *maxRegress*100, *maxAllocRegress*100)
		if !*warnOnly {
			os.Exit(1)
		}
		fmt.Println("benchdiff: -warn-only set, not failing")
		return
	}
	fmt.Printf("benchdiff: no regression beyond %.0f%% ns/op (floor %.0fms) or %.0f%% allocs/op (floor %.0f allocs)\n",
		*maxRegress*100, *minNs/1e6, *maxAllocRegress*100, *minAllocs)
}

// warnMissing prints a sorted warning line for every benchmark present in
// have but absent from other.
func warnMissing(have, other map[string]result, why string) {
	var names []string
	for name := range have {
		if _, ok := other[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s warning: %s\n", name, why)
	}
}
