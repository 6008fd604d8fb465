package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"

	"lva"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/workloads"
)

// loadGolden reads the committed figure hashes.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden hashes: %w", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// hashFigure hashes a figure the way the golden test does: SHA-256 of its
// rendered text.
func hashFigure(f *experiments.Figure) string {
	sum := sha256.Sum256([]byte(f.String()))
	return hex.EncodeToString(sum[:])
}

// checkFigures returns the ids, in ids order, whose figure is missing or
// whose hash differs from golden. Each one is a failed operation.
func checkFigures(figs []*experiments.Figure, ids []string, golden map[string]string) []string {
	var bad []string
	for i, id := range ids {
		if i >= len(figs) || figs[i] == nil || figs[i].ID != id || hashFigure(figs[i]) != golden[id] {
			bad = append(bad, id)
		}
	}
	return bad
}

// fullsysDegrees are the approximation degrees Figures 10 and 11 sweep.
var fullsysDegrees = []int{0, 2, 4, 8, 16}

// snapshotCounts reads the counts that must repeat exactly across runs:
// the run-cache and trace-store counters and, for phase-2 figures, the
// simulated events summed over every memoized full-system run. It must
// follow a regeneration; the full-system results are memo hits.
func snapshotCounts(w workload) map[string]uint64 {
	rc := experiments.RunCacheCounters()
	ts := experiments.TraceCounters()
	c := map[string]uint64{
		"runcache.lookups":         registryCount("runcache_lookups"),
		"runcache.hits":            rc.Hits,
		"runcache.simulated":       rc.Simulated,
		"tracestore.recordings":    ts.Recordings,
		"tracestore.footer_points": ts.HeaderHits,
		"tracestore.replay_passes": ts.ReplayPasses,
		"tracestore.replay_points": ts.ReplayPoints,
		"tracestore.replay_hits":   ts.ReplayHits,
		"tracestore.exec_points":   ts.ExecPoints,
	}
	if slices.Contains(w.figures, "fig10") {
		var sum fullsys.Result
		for _, wk := range workloads.All() {
			for _, d := range fullsysDegrees {
				p, l := experiments.FullSystemResult(wk, d)
				if d == 0 {
					addFullsys(&sum, p)
				}
				addFullsys(&sum, l)
			}
		}
		for k, v := range fullsysCounts(sum) {
			c[k] = v
		}
	}
	return c
}

// addFullsys accumulates the event counts of r into sum.
func addFullsys(sum *fullsys.Result, r fullsys.Result) {
	sum.Cycles += r.Cycles
	sum.L1LoadMisses += r.L1LoadMisses
	sum.Covered += r.Covered
	sum.Fetches += r.Fetches
	sum.ElidedFetches += r.ElidedFetches
	sum.L2Accesses += r.L2Accesses
	sum.DRAMAccesses += r.DRAMAccesses
	sum.DRAMRowHits += r.DRAMRowHits
	sum.Packets += r.Packets
	sum.FlitHops += r.FlitHops
	sum.Invalidations += r.Invalidations
	sum.Flushes += r.Flushes
	sum.StallCycles += r.StallCycles
}

func fullsysCounts(r fullsys.Result) map[string]uint64 {
	return map[string]uint64{
		"fullsys.cycles":          r.Cycles,
		"fullsys.l1_load_misses":  r.L1LoadMisses,
		"fullsys.covered":         r.Covered,
		"fullsys.fetches":         r.Fetches,
		"fullsys.elided_fetches":  r.ElidedFetches,
		"fullsys.l2_accesses":     r.L2Accesses,
		"fullsys.stall_cycles":    r.StallCycles,
		"dram.accesses":           r.DRAMAccesses,
		"dram.row_hits":           r.DRAMRowHits,
		"noc.packets":             r.Packets,
		"noc.flit_hops":           r.FlitHops,
		"coherence.invalidations": r.Invalidations,
		"coherence.flushes":       r.Flushes,
	}
}

// registryCount reads a counter from the program's metrics registry.
func registryCount(name string) uint64 {
	for _, m := range lva.Metrics(false).Metrics {
		if m.Name == name {
			return m.Count
		}
	}
	return 0
}

// diffCounts describes every count that differs between want and got, in
// name order.
func diffCounts(want, got map[string]uint64) []string {
	names := make([]string, 0, len(want)+len(got))
	for k := range want {
		names = append(names, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	var out []string
	for _, k := range names {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			out = append(out, fmt.Sprintf("%s: not counted before, now %d", k, g))
		case !gok:
			out = append(out, fmt.Sprintf("%s: was %d, now not counted", k, w))
		case w != g:
			out = append(out, fmt.Sprintf("%s: was %d, now %d", k, w, g))
		}
	}
	return out
}

// ledgerEntry is one line of the run ledger. Runs of one set share a
// checkout, so the ledger holds every run of the set.
type ledgerEntry struct {
	Key    string            `json:"key"`
	Counts map[string]uint64 `json:"counts"`
	Detail map[string]any    `json:"detail,omitempty"`
}

// ledgerKey groups runs whose counts must agree. Untraced counts come from
// the figures alone, which pin their own seed; the traced run also drives
// layers at the benchmark seed.
func ledgerKey(workload string, traced int, seed uint64) string {
	if traced == 0 {
		return workload + "/untraced"
	}
	return fmt.Sprintf("%s/traced/seed=%d", workload, seed)
}

// checkLedger compares counts with the first earlier run under key and
// returns the differences. A missing ledger means this is the first run.
func checkLedger(path, key string, counts map[string]uint64) ([]string, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var e ledgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		if e.Key == key {
			return diffCounts(e.Counts, counts), nil
		}
	}
	return nil, sc.Err()
}

// appendLedger adds this run to the ledger.
func appendLedger(path, key string, counts map[string]uint64, detail map[string]any) error {
	line, err := json.Marshal(ledgerEntry{Key: key, Counts: counts, Detail: detail})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
