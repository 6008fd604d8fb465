package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildTestRegistry populates a registry with one metric of each kind.
func buildTestRegistry() *Registry {
	r := New()
	r.Counter("zz_last", "sorts last").Add(3)
	r.Counter("aa_first", "sorts first").Add(1)
	r.Gauge("mm_gauge", "").Set(-4)
	h := r.Histogram("hh_hist", "a histogram", []float64{0.5, 1}, false)
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(99)
	r.Histogram("tt_timing", "volatile timing", TimeBuckets, true).Observe(0.01)
	return r
}

// TestSnapshotSortedAndDeterministic checks snapshots are name-sorted and
// repeated JSON renderings are byte-identical.
func TestSnapshotSortedAndDeterministic(t *testing.T) {
	r := buildTestRegistry()
	s := r.Snapshot(false)
	var prev string
	for _, m := range s.Metrics {
		if m.Name <= prev {
			t.Fatalf("snapshot not strictly name-sorted: %q after %q", m.Name, prev)
		}
		prev = m.Name
	}
	a, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Snapshot(false).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated snapshots differ:\n%s\n---\n%s", a, b)
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Error("JSON output should end with a newline")
	}
}

// TestSnapshotVolatileFilter checks volatile metrics only appear when
// explicitly requested.
func TestSnapshotVolatileFilter(t *testing.T) {
	r := buildTestRegistry()
	names := func(s Snapshot) map[string]bool {
		out := make(map[string]bool, len(s.Metrics))
		for _, m := range s.Metrics {
			out[m.Name] = true
		}
		return out
	}
	det := names(r.Snapshot(false))
	if det["tt_timing"] {
		t.Error("deterministic snapshot includes a volatile metric")
	}
	all := names(r.Snapshot(true))
	if !all["tt_timing"] {
		t.Error("Snapshot(true) should include volatile metrics")
	}
}

// TestSnapshotRoundTrip checks decoding JSON's output gives back a
// snapshot that renders the same bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	s := buildTestRegistry().Snapshot(true)
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	b2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed bytes:\n%s\n---\n%s", b, b2)
	}
}

// TestSnapshotBucketRendering pins the histogram wire format: every
// bucket present, overflow rendered as "+Inf".
func TestSnapshotBucketRendering(t *testing.T) {
	r := buildTestRegistry()
	s := r.Snapshot(false)
	var hist *MetricSnapshot
	for i := range s.Metrics {
		if s.Metrics[i].Name == "hh_hist" {
			hist = &s.Metrics[i]
		}
	}
	if hist == nil {
		t.Fatal("hh_hist missing from snapshot")
	}
	if hist.Count != 3 {
		t.Errorf("histogram Count = %d, want 3", hist.Count)
	}
	wantLe := []string{"0.5", "1", "+Inf"}
	wantN := []uint64{1, 1, 1}
	if len(hist.Buckets) != len(wantLe) {
		t.Fatalf("bucket count %d, want %d", len(hist.Buckets), len(wantLe))
	}
	for i, bk := range hist.Buckets {
		if bk.Le != wantLe[i] || bk.Count != wantN[i] {
			t.Errorf("bucket %d = {%s, %d}, want {%s, %d}", i, bk.Le, bk.Count, wantLe[i], wantN[i])
		}
	}
}

// TestSnapshotMarkdown spot-checks the report rendering.
func TestSnapshotMarkdown(t *testing.T) {
	md := buildTestRegistry().Snapshot(false).Markdown()
	for _, want := range []string{
		"| metric | kind | value |",
		"| aa_first | counter | 1 |",
		"| mm_gauge | gauge | -4 |",
		"≤+Inf: 1",
		"n=3",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "tt_timing") {
		t.Error("deterministic markdown should not include volatile metrics")
	}
}
