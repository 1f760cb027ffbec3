// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the synthetic workloads of internal/workload.
//
// Each experiment is a named runner producing a Table — the same rows or
// series the paper plots. Absolute numbers differ from the paper (its
// datasets are proprietary Twitter crawls; ours are seeded synthetic
// equivalents, see DESIGN.md §4), but the comparisons the figures make —
// who wins, how error trades against space, where parameters stop paying
// off — are reproduced. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config scales an experiment run.
type Config struct {
	// Scale multiplies the paper's stream volumes (1.0 = the full 5M-element
	// datasets). The default 0.02 keeps every experiment laptop-quick while
	// preserving the curves' shapes.
	Scale float64
	// Queries is the number of random queries behind every accuracy number
	// (the paper averages over 1000).
	Queries int
	// Seed drives all workload generation and query sampling.
	Seed int64
}

func (c Config) validate() error {
	if !(c.Scale > 0) {
		return fmt.Errorf("experiments: scale must be positive, got %v", c.Scale)
	}
	if c.Queries <= 0 {
		return fmt.Errorf("experiments: queries must be positive, got %d", c.Queries)
	}
	return nil
}

// volume returns the paper volume n scaled by the config.
func (c Config) volume(n int64) int64 {
	v := int64(float64(n) * c.Scale)
	if v < 1000 {
		v = 1000
	}
	return v
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string // one-line interpretation aid
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Runner produces one experiment's table.
type Runner func(Config) (Table, error)

// registry maps experiment ids to runners. Populated by init functions in
// the per-figure files.
var registry = map[string]Runner{}

// descriptions holds the one-line summary shown by List.
var descriptions = map[string]string{}

func register(id, description string, r Runner) {
	registry[id] = r
	descriptions[id] = description
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (Table, error) {
	if err := cfg.validate(); err != nil {
		return Table{}, err
	}
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(List(), ", "))
	}
	return r(cfg)
}

// List returns the registered experiment ids, sorted.
func List() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string { return descriptions[id] }

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
