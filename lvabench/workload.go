package main

import (
	"fmt"
	"os"
	"strings"

	"lva/internal/experiments"
	"lva/internal/workloads"
)

// workload is one fixed group of figures. The figure drivers pin their own
// inputs at experiments.DefaultSeed, so the group's work does not depend on
// the benchmark seed; the golden hashes pin its output.
type workload struct {
	name    string
	figures []string
	// prerecord makes set-up fill the private store with the precise and
	// lvabase recording of every kernel, so the timed run serves counter
	// rows from recordings instead of recording them itself.
	prerecord bool
}

// benchWorkloads are the three workloads. Each stresses different layers:
//   - phase1-exec: error figures, where every design point executes a kernel
//     under memsim; the trace store, the prefetcher and phase 2 are never
//     entered, so it is the no-change control for work on them.
//   - phase1-replay: counter figures served from a store filled in set-up,
//     by footer reads, shared multi-sim replays and feedback-kernel runs;
//     the only workload that runs the prefetcher and memsim.Replay.
//   - phase2: the full-system figures, which record the precise streams and
//     stream each through six full-system configurations.
var benchWorkloads = []workload{
	{name: "phase1-exec", figures: []string{"fig5", "fig6", "fig7", "fig9", "ablation-compute", "ablation-conf", "ablation-lhb"}},
	{name: "phase1-replay", figures: []string{"table1", "fig4", "fig8", "fig12", "fig13", "ablation-table"}, prerecord: true},
	{name: "phase2", figures: []string{"fig10", "fig11"}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// startState owns the private trace stores of one benchmark process. Every
// store lives under root and is removed before the next one is made and
// when the process ends, so no run can fall back to a persistent store or
// see another run's recordings.
type startState struct {
	root  string
	store string
}

func newStartState(workDir string) (*startState, error) {
	root, err := os.MkdirTemp(workDir, "stores-")
	if err != nil {
		return nil, fmt.Errorf("making the store root: %w", err)
	}
	return &startState{root: root}, nil
}

// discard removes the current store. It is the previous iteration's
// teardown and is not part of set-up time.
func (s *startState) discard() error {
	if s.store == "" {
		return nil
	}
	err := os.RemoveAll(s.store)
	s.store = ""
	return err
}

// setup reaches the workload's start state: a fresh private store, empty
// memos and, for prerecord workloads, the store filled with the 14
// recordings at the figures' seed. The store must already be discarded.
func (s *startState) setup(w workload) error {
	dir, err := os.MkdirTemp(s.root, "store-")
	if err != nil {
		return fmt.Errorf("making a private store: %w", err)
	}
	s.store = dir
	experiments.SetTraceDir(dir)
	experiments.ResetRunCache()
	if !w.prerecord {
		return nil
	}
	if err := recordAll(experiments.DefaultSeed, "precise", "lvabase"); err != nil {
		return err
	}
	// Recording memoizes the recording runs; drop them so the timed run
	// starts with empty memos and a filled store.
	experiments.ResetRunCache()
	return nil
}

// recordAll records the given stream kinds of every kernel at seed into the
// current store.
func recordAll(seed uint64, kinds ...string) error {
	for _, wk := range workloads.All() {
		for _, kind := range kinds {
			if _, err := experiments.EnsureGridStream(kind, wk, seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// close removes every store this process made and restores the default
// store resolution.
func (s *startState) close() {
	experiments.SetTraceDir("")
	if err := os.RemoveAll(s.root); err != nil {
		fmt.Fprintln(os.Stderr, "lvabench: removing private stores:", err)
	}
}
