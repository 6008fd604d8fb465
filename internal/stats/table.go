package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned columns.
// Experiment drivers use it to print the same rows/series the paper reports.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with fixed-width columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		var sep []string
		for _, w := range widths[:len(t.header)] {
			sep = append(sep, strings.Repeat("-", w))
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
