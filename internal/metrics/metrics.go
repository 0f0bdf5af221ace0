// Package metrics holds the live engine's instrument registry, its
// sampler and Prometheus exposition, and the table renderer the
// experiment harness uses to print the paper's figures as aligned text
// and CSV.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table renders experiment results as an aligned text table (the shape the
// paper's figures report: one row per x value, one column per series).
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat prints floats compactly: integers without decimals, large
// values without noise digits.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values (header +
// rows): cells containing commas, quotes, or line breaks are quoted, with
// embedded quotes doubled — pattern texts like `contains "a,b"` survive a
// round trip through spreadsheet tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCells := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvQuote(cell))
		}
		b.WriteByte('\n')
	}
	writeCells(t.Columns)
	for _, row := range t.rows {
		writeCells(row)
	}
	return b.String()
}

// csvQuote wraps a cell in double quotes when RFC 4180 requires it.
func csvQuote(cell string) string {
	if !strings.ContainsAny(cell, ",\"\n\r") {
		return cell
	}
	return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
}
