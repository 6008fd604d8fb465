package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lva/internal/obs"
	"lva/internal/stats"
)

// Figure is the structured result of one experiment: a set of labelled
// series, each holding one value per benchmark, matching the bar groups of
// the paper's figures. The mean column reproduces the paper's per-series
// average.
type Figure struct {
	ID         string
	Title      string
	ValueUnit  string // e.g. "normalized MPKI", "% error"
	Benchmarks []string
	Rows       []Row
	Notes      []string
}

// Row is one series (one bar colour in the paper's figures).
type Row struct {
	Label  string
	Values []float64 // aligned with Figure.Benchmarks
}

// Mean returns the arithmetic mean across benchmarks.
func (r Row) Mean() float64 { return stats.Mean(r.Values) }

// Value returns the series value for a benchmark.
func (f *Figure) Value(label, bench string) (float64, bool) {
	bi := -1
	for i, b := range f.Benchmarks {
		if b == bench {
			bi = i
			break
		}
	}
	if bi < 0 {
		return 0, false
	}
	for _, r := range f.Rows {
		if r.Label == label {
			return r.Values[bi], true
		}
	}
	return 0, false
}

// Row returns the series with the given label.
func (f *Figure) Row(label string) (Row, bool) {
	for _, r := range f.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Table renders the figure as an aligned text table, one row per series.
func (f *Figure) Table() *stats.Table {
	header := append([]string{"series"}, f.Benchmarks...)
	header = append(header, "mean")
	t := stats.NewTable(fmt.Sprintf("%s — %s (%s)", f.ID, f.Title, f.ValueUnit), header...)
	for _, r := range f.Rows {
		cells := []string{r.Label}
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		cells = append(cells, fmt.Sprintf("%.3f", r.Mean()))
		t.AddRow(cells...)
	}
	return t
}

// String renders the table plus notes.
func (f *Figure) String() string {
	var b strings.Builder
	b.WriteString(f.Table().String())
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Registry maps experiment ids to their drivers: the paper's tables and
// figures plus the ablations/extensions this reproduction adds.
var Registry = map[string]func() *Figure{
	"table1":           Table1,
	"fig1":             Fig1,
	"fig4":             Fig4,
	"fig5":             Fig5,
	"fig6":             Fig6,
	"fig7":             Fig7,
	"fig8":             Fig8,
	"fig9":             Fig9,
	"fig10":            Fig10,
	"fig11":            Fig11,
	"fig12":            Fig12,
	"fig13":            Fig13,
	"ablation-table":   AblationTable,
	"ablation-compute": AblationCompute,
	"ablation-conf":    AblationConfidence,
	"ablation-lhb":     AblationLHB,
	"ext-lane":         ExtLane,
	"ext-mlp":          ExtMLP,
}

// IDs returns the experiment ids in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		// table1 first, then fig1..fig13 numerically, then the
		// ablations/extensions alphabetically.
		ka, kb := idKey(ids[a]), idKey(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	return ids
}

func idKey(id string) int {
	if id == "table1" {
		return -1
	}
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n
	}
	return 1000 // ablations/extensions after the paper's artifacts
}

// RunAll regenerates the named experiments (every registry experiment when
// ids is empty) with cross-figure scheduling: each driver runs in its own
// goroutine and admits its simulation points through the shared
// Parallelism-bounded gate, so points from different figures interleave
// while the run cache simulates every shared design point exactly once.
// Figures are returned in ids order (registry order when ids is empty).
func RunAll(ids ...string) ([]*Figure, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if Registry[id] == nil {
			return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", id, IDs())
		}
	}
	figs := make([]*Figure, len(ids))
	var wg sync.WaitGroup
	var done atomic.Int32
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// Label the driver goroutine (and everything it spawns) so CPU
			// and goroutine profiles attribute samples to their figure; the
			// labels are cheap enough to apply unconditionally.
			pprof.Do(context.Background(), pprof.Labels("lva_figure", id), func(context.Context) {
				tl := timeline.Load()
				start := time.Now()
				figs[i] = Registry[id]()
				if tl != nil {
					tl.span(tlPidFigures, i, id, "figure", start, nil)
				}
			})
			eng().figuresDone.Inc()
			obs.Emit(obs.Event{
				Kind: obs.EventFigureDone, Name: id,
				Done: int(done.Add(1)), Total: len(ids),
			})
		}(i, id)
	}
	wg.Wait()
	return figs, nil
}
