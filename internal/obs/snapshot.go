package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one histogram bucket in a snapshot. Le is the bucket's
// inclusive upper bound formatted as a string ("+Inf" for the overflow
// bucket) because JSON cannot encode infinities.
type Bucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// MetricSnapshot is one metric's frozen state.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Help    string   `json:"help,omitempty"`
	Value   int64    `json:"value,omitempty"`   // gauges
	Count   uint64   `json:"count,omitempty"`   // counters and histogram totals
	Buckets []Bucket `json:"buckets,omitempty"` // histograms
}

// Snapshot is a frozen, name-sorted view of a registry. With volatile
// metrics excluded it is fully deterministic: the same simulations produce
// the same bytes regardless of Parallelism or scheduling order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// formatBound renders a histogram bound compactly and reversibly.
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Snapshot freezes the registry. includeVolatile also captures metrics
// registered as volatile (wall-clock histograms); leave it false for
// deterministic output.
func (r *Registry) Snapshot(includeVolatile bool) Snapshot {
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.metrics))
	for _, e := range r.metrics {
		if e.volatile && !includeVolatile {
			continue
		}
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	snap := Snapshot{Metrics: make([]MetricSnapshot, 0, len(entries))}
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Kind: e.kind, Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Count = e.c.Value()
		case kindGauge:
			m.Value = e.g.Value()
		case kindHistogram:
			counts := e.h.BucketCounts()
			bounds := e.h.Bounds()
			m.Count = e.h.Count()
			m.Buckets = make([]Bucket, len(counts))
			for i, n := range counts {
				le := "+Inf"
				if i < len(bounds) {
					le = formatBound(bounds[i])
				}
				m.Buckets[i] = Bucket{Le: le, Count: n}
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// JSON renders the snapshot as stable, indented JSON terminated by a
// newline. Struct-driven marshalling keeps field order fixed, and the
// metric slice is name-sorted, so identical registries always produce
// identical bytes.
func (s Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Markdown renders the snapshot as a GitHub-flavored table, one row per
// metric. Histograms report their total count plus the non-empty buckets
// inline, so a report stays readable without losing the distribution.
func (s Snapshot) Markdown() string {
	var b strings.Builder
	b.WriteString("| metric | kind | value |\n|---|---|---|\n")
	for _, m := range s.Metrics {
		var v string
		switch m.Kind {
		case kindGauge:
			v = strconv.FormatInt(m.Value, 10)
		case kindHistogram:
			parts := make([]string, 0, len(m.Buckets))
			for _, bk := range m.Buckets {
				if bk.Count > 0 {
					parts = append(parts, fmt.Sprintf("≤%s: %d", bk.Le, bk.Count))
				}
			}
			v = fmt.Sprintf("n=%d", m.Count)
			if len(parts) > 0 {
				v += " (" + strings.Join(parts, ", ") + ")"
			}
		default:
			v = strconv.FormatUint(m.Count, 10)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", m.Name, m.Kind, v)
	}
	return b.String()
}
