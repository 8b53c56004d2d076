// Command replbench regenerates the paper's evaluation exhibits (Tables
// 1-8, Figures 1-3) on the simulated cluster, plus the beyond-the-paper
// extension cells (N-replica groups, the sharded front-end, the
// availability, chaos and rebalance timelines, the key-value layer, the
// disk tier).
//
// Usage:
//
//	replbench [-experiment <group>|<id>[,<id>...]]
//	          groups: all, paper, ablations, extensions, everything, cells
//	          ids:    fig1 fig2 fig3 table1..table8
//	                  ablation-2safe ablation-cpu ablation-packet ablation-san ablation-wbuf
//	                  repl-degree shard-scaling group-commit availability chaos
//	                  kv readscale durability rebalance
//	          [-db MB] [-dc-txns N] [-oe-txns N] [-warmup N] [-seed N] [-full]
//	          [-backups K] [-safety 1safe|2safe|quorum] [-shards N] [-commit-batch B]
//	          [-chaos-events N] [-target-shards N,N,...]
//	          [-kv-ops N] [-kv-records N] [-kv-scan-len N] [-read-mode M]
//	          [-csv] [-q]
//
// cells is extensions at the one pinned scale (harness.PinnedRunConfig),
// ignoring every scale flag: `make bench` writes its -csv output to
// BENCH_cells.csv and TestCellsPinned holds the file to it byte for byte.
//
// Examples:
//
//	replbench -experiment table4        # passive-backup version comparison
//	replbench -experiment all -full     # paper-scale transaction counts
//	replbench -experiment ablations     # beyond-the-paper sensitivity studies
//	replbench -experiment cells         # the nine pinned cells, as committed
//	replbench -experiment shard-scaling -shards 8               # sharded front-end scaling
//	replbench -experiment repl-degree -backups 5                # replication degree sweep to K=5
//	replbench -experiment group-commit -commit-batch 32         # batched commit sweep
//	replbench -experiment chaos -seed 7                         # another seeded fault schedule
//	replbench -experiment readscale -read-mode bounded          # one mode alongside the baseline
//	replbench -experiment rebalance -target-shards 4,8,16       # custom growth steps
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/replication"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "exhibits to regenerate: a group (all, paper, ablations, extensions, everything, cells) or comma-separated ids (fig1..fig3, table1..table8, ablation-2safe/cpu/packet/san/wbuf, repl-degree, shard-scaling, group-commit, availability, chaos, kv, readscale, durability, rebalance); cells = extensions at the pinned scale, scale flags ignored")
		dbMB       = flag.Int("db", 50, "database size in MB")
		dcTxns     = flag.Int64("dc-txns", 0, "Debit-Credit transactions per cell (0 = default)")
		oeTxns     = flag.Int64("oe-txns", 0, "Order-Entry transactions per cell (0 = default)")
		warmup     = flag.Int64("warmup", 0, "warmup transactions per cell (0 = default)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		backups    = flag.Int("backups", 0, "replication degree K for the replicated cells (0 = each cell's own default): repl-degree sweeps 1..K; shard-scaling, availability, chaos, kv, readscale, durability and rebalance build K-backup groups (group-commit pins K=3)")
		shards     = flag.Int("shards", 4, "largest shard count the shard-scaling sweep reaches")
		batch      = flag.Int("commit-batch", 0, "extra batch size appended to the group-commit sweep (1, 4, 16); the readscale group-commit batch (0 = 96)")
		safety     = flag.String("safety", "1safe", "commit discipline (1safe, 2safe, quorum) for shard-scaling, availability, chaos and kv; repl-degree and group-commit sweep every level themselves, readscale, durability and rebalance pin quorum")
		chaosN     = flag.Int("chaos-events", 0, "fault injections the chaos schedule lands (0 = default 4)")
		targets    = flag.String("target-shards", "", "comma-separated growth steps for rebalance as absolute shard counts, each above the last, from the 2-shard start (\"\" = 4,8)")
		kvOps      = flag.Int64("kv-ops", 0, "measured kv operations per kv and readscale cell (0 = default)")
		kvRecords  = flag.Int("kv-records", 0, "preloaded kv keyspace size (0 = default)")
		kvScanLen  = flag.Int("kv-scan-len", 0, "range-scan length of the kv and readscale scan mixes (0 = default 10)")
		readMode   = flag.String("read-mode", "", "restrict the readscale experiment to one replica-read mode (ryw, bounded, quorum) next to the primary baseline (\"\" = sweep every mode)")
		full       = flag.Bool("full", false, "paper-scale transaction counts (slow)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	cfg := harness.DefaultRunConfig()
	cfg.DBSize = *dbMB << 20
	cfg.Seed = *seed
	cfg.Backups = *backups
	cfg.Shards = *shards
	cfg.CommitBatch = *batch
	switch *safety {
	case "1safe", "1-safe":
		cfg.Safety = replication.OneSafe
	case "2safe", "2-safe":
		cfg.Safety = replication.TwoSafe
	case "quorum":
		cfg.Safety = replication.QuorumSafe
	default:
		fmt.Fprintf(os.Stderr, "replbench: unknown safety level %q\n", *safety)
		return 2
	}
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

	if *targets != "" {
		for _, s := range strings.Split(*targets, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "replbench: bad -target-shards step %q\n", s)
				return 2
			}
			cfg.TargetShards = append(cfg.TargetShards, n)
		}
	}
	cfg.ChaosEvents = *chaosN
	cfg.KVOps = *kvOps
	cfg.KVRecords = *kvRecords
	cfg.KVScanLen = *kvScanLen
	cfg.ReadMode = *readMode

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
