package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-input convention")
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := float64(raw[0]), float64(raw[0])
		for i, r := range raw {
			xs[i] = float64(r)
			lo, hi = min(lo, xs[i]), max(hi, xs[i])
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.123); got != "12.3%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta", "2.50")
	out := tbl.String()
	for _, want := range []string{"demo", "name", "alpha", "2.50", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// Title, header, separator and the two rows; every body line is
	// padded to the widest first column ("alpha").
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if len(l) < len("alpha  ") || l[len("alpha")] != ' ' {
			t.Fatalf("column not aligned to the widest first cell: %q", l)
		}
	}
}

func TestTableExtraCells(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x", "extra", "cells")
	if !strings.Contains(tbl.String(), "cells") {
		t.Fatal("extra cells must be rendered")
	}
}
