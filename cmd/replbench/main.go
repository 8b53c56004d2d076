// Command replbench regenerates the paper's evaluation exhibits (Tables
// 1-8, Figures 1-3) on the simulated cluster, plus the beyond-the-paper
// extension cells (N-replica groups, the sharded front-end, the
// availability, chaos and rebalance timelines, the key-value layer, the
// disk tier).
//
// Usage:
//
//	replbench [-experiment <group>|<id>[,<id>...]]
//	          [-db MB] [-dc-txns N] [-oe-txns N] [-warmup N] [-seed N] [-full]
//	          [-csv] [-q]
//
// The groups are all (paper + extensions), paper, ablations, extensions,
// everything and cells; `replbench -h` lists every exhibit id.
//
// The flags set the run's scale alone; every extension cell fixes its own
// deployment (replication degree, safety, batch, schedule). cells is
// extensions at the one pinned scale (harness.PinnedRunConfig), ignoring
// every scale flag: `make bench` writes its -csv output to BENCH_cells.csv
// and TestCellsPinned holds the file to it byte for byte.
//
// Examples:
//
//	replbench -experiment table4        # passive-backup version comparison
//	replbench -experiment all -full     # paper-scale transaction counts
//	replbench -experiment ablations     # beyond-the-paper sensitivity studies
//	replbench -experiment cells         # the nine pinned cells, as committed
//	replbench -experiment chaos -seed 7 # another seeded fault schedule
//	replbench -experiment shard-scaling,repl-degree -db 16 -dc-txns 3000 -q
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var ids []string
	for _, e := range selectExperiments("everything") {
		ids = append(ids, e.ID)
	}
	var (
		experiment = flag.String("experiment", "all", "exhibits to regenerate: a group (all, paper, ablations, extensions, everything, cells) or comma-separated ids ("+strings.Join(ids, ", ")+"); cells = extensions at the pinned scale, scale flags ignored")
		dbMB       = flag.Int("db", 50, "database size in MB")
		dcTxns     = flag.Int64("dc-txns", 0, "Debit-Credit transactions per cell (0 = default)")
		oeTxns     = flag.Int64("oe-txns", 0, "Order-Entry transactions per cell (0 = default)")
		warmup     = flag.Int64("warmup", 0, "warmup transactions per cell (0 = default)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		full       = flag.Bool("full", false, "paper-scale transaction counts (slow)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	cfg := harness.DefaultRunConfig()
	cfg.DBSize = *dbMB << 20
	cfg.Seed = *seed
	if *full {
		cfg.DCTxns, cfg.OETxns, cfg.Warmup = 1_000_000, 200_000, 20_000
	}
	if *dcTxns > 0 {
		cfg.DCTxns = *dcTxns
	}
	if *oeTxns > 0 {
		cfg.OETxns = *oeTxns
	}
	if *warmup > 0 {
		cfg.Warmup = *warmup
	}

	exps := selectExperiments(*experiment)
	if exps == nil {
		return 2
	}
	if *experiment == "cells" {
		cfg = harness.PinnedRunConfig()
	}

	for _, e := range exps {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replbench: %s: %v\n", e.ID, err)
			return 1
		}
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Println(table.Render())
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s took %.1fs wall]\n\n", e.ID, time.Since(start).Seconds())
		}
	}
	return 0
}

// selectExperiments resolves the -experiment selector, or nil (after
// printing the error) for an unknown id.
func selectExperiments(experiment string) []harness.Experiment {
	var exps []harness.Experiment
	switch experiment {
	case "all":
		exps = append(harness.All(), harness.Extensions()...)
	case "paper":
		exps = harness.All()
	case "ablations":
		exps = harness.Ablations()
	case "extensions", "cells":
		exps = harness.Extensions()
	case "everything":
		exps = append(harness.All(), harness.Ablations()...)
		exps = append(exps, harness.Extensions()...)
	default:
		for _, id := range strings.Split(experiment, ",") {
			e, ok := harness.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "replbench: unknown experiment %q\n", id)
				return nil
			}
			exps = append(exps, e)
		}
	}
	return exps
}
