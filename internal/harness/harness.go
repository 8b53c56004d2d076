// Package harness regenerates every table and figure of the paper's
// evaluation: one experiment function per exhibit, each returning a Table
// that prints like the original. The per-experiment index lives in
// DESIGN.md; EXPERIMENTS.md records measured-versus-paper values.
package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // "table4", "fig2", ...
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carries provenance (workload sizes, transaction counts).
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values under a "# <id>" line
// that keeps concatenated tables apart. Notes are left out: they carry
// provenance and host-dependent values, the rows are the result.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.ID)
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a registered exhibit reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// paperExhibits lists the paper's tables and figures in exhibit order.
var paperExhibits = []string{"fig1", "table1", "table2", "table3", "table4",
	"table5", "table6", "table7", "table8", "fig2", "fig3"}

// ablationExhibits lists the beyond-the-paper sensitivity studies.
var ablationExhibits = []string{"ablation-wbuf", "ablation-packet",
	"ablation-cpu", "ablation-san", "ablation-2safe"}

// pinnedCells lists the beyond-the-paper cells in exhibit order: the
// N-replica group's degree/safety and group-commit trade-offs, the
// sharded front-end, the crash → repair availability timeline, the
// autopilot's unattended chaos run, the key-value layer's YCSB-style
// mixes, replica-read scaling, the disk tier's cold-restart matrix and
// the elastic online rebalance. It is the one declaration of the set:
// Extensions, `replbench -experiment cells|extensions|everything`,
// `make bench` and TestCellsPinned all read it, and their tables at
// PinnedRunConfig are committed as BENCH_cells.csv.
var pinnedCells = []string{"repl-degree", "shard-scaling", "group-commit",
	"availability", "chaos", "kv", "readscale", "durability", "rebalance"}

// All returns the paper's experiments in exhibit order.
func All() []Experiment { return byIDs(paperExhibits) }

// Ablations returns the design-sensitivity experiments.
func Ablations() []Experiment { return byIDs(ablationExhibits) }

// Extensions returns the pinned beyond-the-paper cells.
func Extensions() []Experiment { return byIDs(pinnedCells) }

func byIDs(ids []string) []Experiment {
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		if e, ok := registry[id]; ok {
			out = append(out, e)
		}
	}
	return out
}

// RunConfig scales the experiments. The defaults aim at a few seconds per
// exhibit; the paper's own runs used millions of transactions, which the
// -full flag of cmd/replbench approaches. It carries the run's scale
// alone: every extension cell fixes its own deployment (replication
// degree, safety, batch, schedule), as committed in BENCH_cells.csv.
type RunConfig struct {
	// DBSize is the database size (paper default 50 MB).
	DBSize int
	// DCTxns and OETxns are measured transaction counts per cell.
	DCTxns int64
	OETxns int64
	// Warmup transactions run before measurement in every cell.
	Warmup int64
	// Seed feeds the workload generators.
	Seed uint64
	// SMPStreams is the processor-count sweep for Figures 2 and 3.
	SMPStreams []int
	// SMPDBSize is the per-stream database size in the SMP experiments
	// (paper: 10 MB per transaction stream).
	SMPDBSize int
}

// DefaultRunConfig returns the scaled-down default configuration.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		DBSize:     50 << 20,
		DCTxns:     60_000,
		OETxns:     15_000,
		Warmup:     3_000,
		Seed:       1,
		SMPStreams: []int{1, 2, 3, 4},
		SMPDBSize:  10 << 20,
	}
}

// PinnedRunConfig is the one scale the committed cell tables
// (BENCH_cells.csv) and EXPERIMENTS.md are generated at. It sets what the
// throughput cells need; the timeline and kv cells size their own
// databases.
func PinnedRunConfig() RunConfig {
	return RunConfig{
		DBSize: 16 << 20,
		DCTxns: 6000,
		OETxns: 2500,
		Warmup: 600,
		Seed:   1,
	}
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
