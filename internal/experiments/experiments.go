// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate. Each experiment returns a
// Table whose rows mirror what the paper reports; cmd/croesus-bench prints
// them (optionally as Markdown), and the root bench_test.go exposes each
// as a testing.B benchmark.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not EC2 + real YOLO), but the shapes hold: who wins, by roughly what
// factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "figure2"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
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
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Opts configures experiment scale. The zero value is usable; Default
// yields runs that finish in seconds while preserving every trend.
type Opts struct {
	// Frames per video.
	Frames int
	// Seed for video generation and models.
	Seed int64
	// Mu is the F-score constraint for optimal-threshold experiments.
	Mu float64
	// GridStep for brute-force threshold search.
	GridStep float64
}

// Default returns the standard experiment options.
func Default() Opts {
	return Opts{Frames: 160, Seed: 42, Mu: 0.80, GridStep: 0.05}
}

func (o Opts) defaults() Opts {
	d := Default()
	if o.Frames == 0 {
		o.Frames = d.Frames
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Mu == 0 {
		o.Mu = d.Mu
	}
	if o.GridStep == 0 {
		o.GridStep = d.GridStep
	}
	return o
}

// ms formats a duration as milliseconds with two decimals, like the
// paper's tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

func f3(f float64) string {
	return fmt.Sprintf("%.3f", f)
}

// registry maps experiment IDs to their harnesses, in paper order.
var registry = []struct {
	id  string
	run func(Opts) Table
}{
	{"figure2", Figure2},
	{"table1", Table1},
	{"figure3", Figure3},
	{"table2", Table2},
	{"figure4", Figure4},
	{"figure5", Figure5},
	{"figure6a", Figure6a},
	{"figure6b", Figure6b},
	{"figure6c", Figure6c},
	{"cluster-scale", ClusterScale},
	{"cluster-shed", ClusterShed},
	{"cluster-2pc", Cluster2PC},
	{"cluster-faults", ClusterFaults},
	{"cluster-migrate", ClusterMigrate},
	{"graph-depth", GraphDepth},
	{"ablation-policy", AblationPolicy},
	{"ablation-sequencer", AblationSequencer},
	{"ablation-chain", AblationChain},
	{"ablation-2pc", AblationTwoPC},
	{"ablation-smoothing", AblationSmoothing},
}

// All runs every experiment and returns the tables in paper order.
func All(o Opts) []Table {
	tables := make([]Table, len(registry))
	for i, e := range registry {
		tables[i] = e.run(o)
	}
	return tables
}

// ByID runs the experiment with the given ID.
func ByID(id string, o Opts) (Table, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run(o), true
		}
	}
	return Table{}, false
}

// IDs lists the available experiment IDs without running them.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
