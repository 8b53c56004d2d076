// Command replbench regenerates the paper's evaluation exhibits (Tables
// 1-8, Figures 1-3) on the simulated cluster, plus the beyond-the-paper
// extension cells: N-replica groups (repl-degree), the sharded cluster
// front-end (shard-scaling) and the elastic online rebalance (rebalance).
//
// Usage:
//
//	replbench [-experiment <group>|<id>[,<id>...]]
//	          groups: all, paper, ablations, extensions, everything
//	          ids:    fig1 fig2 fig3 table1..table8
//	                  ablation-2safe ablation-cpu ablation-packet ablation-san ablation-wbuf
//	                  repl-degree shard-scaling rebalance parallel-shards group-commit
//	                  availability chaos kv durability
//	          [-repair] [-chaos] [-chaos-events N] [-kv] [-kv-ops N] [-kv-records N]
//	          [-durability] [-rebalance] [-target-shards N,N,...]
//	          [-db MB] [-dc-txns N] [-oe-txns N] [-warmup N] [-seed N]
//	          [-backups K] [-shards N] [-clients C] [-commit-batch B]
//	          [-safety 1safe|2safe|quorum] [-full] [-csv]
//
// Examples:
//
//	replbench -experiment table4        # passive-backup version comparison
//	replbench -experiment all -full     # paper-scale transaction counts
//	replbench -experiment ablations     # beyond-the-paper sensitivity studies
//	replbench -shards 4                 # sharded front-end scaling to 4 shards
//	replbench -backups 3 -safety quorum # quorum-commit replica groups
//	replbench -experiment parallel-shards -shards 4 -clients 4  # wall-clock scaling
//	replbench -experiment group-commit -commit-batch 32         # batched commit sweep
//	replbench -repair                   # crash→failover→online-repair availability timeline
//	replbench -chaos -seed 7            # seeded unattended fault schedule (MTTD/MTTR per event)
//	replbench -kv                       # YCSB-style key-value mixes over one shard and four
//	replbench -experiment readscale     # replica reads per consistency mode vs the primary baseline
//	replbench -experiment readscale -read-mode bounded  # one mode alongside the baseline
//	replbench -durability               # disk-tier kill-and-restart recovery matrix
//	replbench -rebalance                # elastic 2 → 4 → 8 online rebalance under load
//	replbench -rebalance -target-shards 4,8,16  # custom growth steps
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
		experiment = flag.String("experiment", "all", "exhibits to regenerate: a group (all, paper, ablations, extensions, everything) or comma-separated ids (fig1..fig3, table1..table8, ablation-2safe/cpu/packet/san/wbuf, repl-degree, shard-scaling, rebalance, parallel-shards, group-commit, availability, chaos, kv, readscale, durability)")
		dbMB       = flag.Int("db", 50, "database size in MB")
		dcTxns     = flag.Int64("dc-txns", 0, "Debit-Credit transactions per cell (0 = default)")
		oeTxns     = flag.Int64("oe-txns", 0, "Order-Entry transactions per cell (0 = default)")
		warmup     = flag.Int64("warmup", 0, "warmup transactions per cell (0 = default)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		backups    = flag.Int("backups", 3, "replication degree K for the replicated cells: repl-degree sweeps 1..K; shard-scaling, parallel-shards, availability, chaos and kv build K-backup groups (group-commit pins K=3)")
		shards     = flag.Int("shards", 4, "largest shard count the shard-scaling and parallel-shards sweeps reach")
		clients    = flag.Int("clients", 0, "concurrent client goroutines, parallel-shards only (0 = one per shard; every other cell drives a single deterministic client)")
		batch      = flag.Int("commit-batch", 0, "extra batch size appended to the group-commit sweep (1, 4, 16)")
		safety     = flag.String("safety", "1safe", "commit discipline (1safe, 2safe, quorum) for shard-scaling, parallel-shards, availability, chaos and kv; repl-degree and group-commit sweep every level themselves")
		repair     = flag.Bool("repair", false, "run the crash→failover→online-repair availability timeline (windowed txn/s + repair duration/bytes)")
		chaos      = flag.Bool("chaos", false, "run the unattended chaos schedule against the autopilot (per-event MTTD/failover/repair/MTTR latencies; seeded by -seed)")
		chaosN     = flag.Int("chaos-events", 0, "fault injections the -chaos schedule lands (0 = default 4)")
		kvFlag     = flag.Bool("kv", false, "run the key-value YCSB-style mixes over one shard and four through the DB interface")
		durability = flag.Bool("durability", false, "run the disk tier's kill-and-restart recovery matrix (snapshot interval x corrupt-tail mode; seeded by -seed)")
		rebalance  = flag.Bool("rebalance", false, "run the elastic online-rebalance timeline: a 2-shard deployment grows through -target-shards under the live Debit-Credit stream (windowed txn/s + migration totals + acked-write audit)")
		targets    = flag.String("target-shards", "", "comma-separated growth steps for -rebalance as absolute shard counts, each above the last, from the 2-shard start (\"\" = 4,8)")
		kvOps      = flag.Int64("kv-ops", 0, "measured kv operations per mix cell (0 = default)")
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
	cfg.Clients = *clients
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

	var exps []harness.Experiment
	switch {
	case *kvFlag:
		// -kv runs the key-value mixes alone.
		e, ok := harness.Lookup("kv")
		if !ok {
			fmt.Fprintln(os.Stderr, "replbench: kv experiment not registered")
			return 2
		}
		exps = append(exps, e)
	case *durability:
		// -durability runs the disk tier's recovery matrix alone.
		e, ok := harness.Lookup("durability")
		if !ok {
			fmt.Fprintln(os.Stderr, "replbench: durability experiment not registered")
			return 2
		}
		exps = append(exps, e)
	case *rebalance:
		// -rebalance runs the elastic growth timeline alone.
		e, ok := harness.Lookup("rebalance")
		if !ok {
			fmt.Fprintln(os.Stderr, "replbench: rebalance experiment not registered")
			return 2
		}
		exps = append(exps, e)
	case *repair:
		// -repair runs the availability timeline alone.
		e, ok := harness.Lookup("availability")
		if !ok {
			fmt.Fprintln(os.Stderr, "replbench: availability experiment not registered")
			return 2
		}
		exps = append(exps, e)
	case *chaos:
		// -chaos runs the seeded unattended fault schedule alone; the
		// rendered table carries the per-event detection/failover/repair
		// latencies.
		e, ok := harness.Lookup("chaos")
		if !ok {
			fmt.Fprintln(os.Stderr, "replbench: chaos experiment not registered")
			return 2
		}
		exps = append(exps, e)
	default:
		exps = selectExperiments(*experiment)
		if exps == nil {
			return 2
		}
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
	case "extensions":
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
