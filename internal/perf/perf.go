// Package perf provides the measurement machinery of the benchmark harness:
// the time-to-solution (T2S) metrics the paper uses to compare against the
// state of the art, and plain-text table formatting for the Tables I–V and
// Figs. 4–5 reproductions.
package perf

import (
	"fmt"
	"strings"
)

// T2SElectron returns the paper's Maxwell–Ehrenfest time-to-solution metric:
// wall-clock seconds per QD step per electron (Table I).
func T2SElectron(wallPerQDStep float64, electrons int) float64 {
	return wallPerQDStep / float64(electrons)
}

// T2SAtomWeight returns the XS-NNQMD time-to-solution metric: wall-clock
// seconds per MD step per (atom × network weight) (Table II).
func T2SAtomWeight(wallPerMDStep float64, atoms, weights int64) float64 {
	return wallPerMDStep / (float64(atoms) * float64(weights))
}

// Table is a simple fixed-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatG(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatG renders a float in compact scientific-or-plain form.
func FormatG(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	if a != 0 && (a >= 1e5 || a < 1e-3) {
		return fmt.Sprintf("%.3e", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
