package harness

import (
	"fmt"

	"repro"
	"repro/internal/replication"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// Beyond-the-paper throughput cells: the N-replica group's
// replication-degree/safety and group-commit trade-offs and the sharded
// front-end's scaling. Like every cell in pinnedCells they are registered
// apart from the paper's exhibits, so `replbench -experiment all` shows
// them after the tables.
func init() {
	register(Experiment{
		ID:    "repl-degree",
		Title: "Active-group throughput vs replication degree and commit safety",
		Run:   runReplDegree,
	})
	register(Experiment{
		ID:    "shard-scaling",
		Title: "Aggregate throughput vs shard count (sharded cluster front-end)",
		Run:   runShardScaling,
	})
	register(Experiment{
		ID:    "group-commit",
		Title: "Group-commit batch size vs commit-safety cost",
		Run:   runGroupCommit,
	})
}

// runReplDegree sweeps the backup count K = 1..3 for each commit-safety
// level on the active scheme: 1-safe throughput is nearly flat in K (one
// broadcast, no waiting), quorum pays the median backup's round trip,
// 2-safe the slowest backup's.
func runReplDegree(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "repl-degree",
		Title:   "Active-group Debit-Credit throughput (txns/sec) by backups K and commit safety",
		Headers: []string{"Backups", "1-safe", "quorum", "2-safe", "quorum acks"},
		Notes: append(runNotes(cfg),
			"quorum = ceil((K+1)/2) backup acks; an acked commit survives the primary plus any minority of backups"),
	}
	for k := 1; k <= 3; k++ {
		row := []string{fmt.Sprintf("%d", k)}
		for _, s := range []replication.Safety{replication.OneSafe, replication.QuorumSafe, replication.TwoSafe} {
			group := groupConfig(vista.V3InlineLog, replication.Active, cfg.DBSize, nil)
			group.Backups, group.Safety = k, s
			res, err := runCell(cfg, benchDC, group, cfg.DCTxns)
			if err != nil {
				return nil, err
			}
			row = append(row, f0(res.TPS))
		}
		row = append(row, fmt.Sprintf("%d", replication.QuorumAcks(k)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runShardScaling drives the same total transaction count against 1, 2 and
// 4 shards of the sharded cluster front-end. Shards are independent replica
// groups on disjoint hardware, so the run's wall-clock is the slowest
// shard's simulated time and aggregate txn/s grows with the shard count.
func runShardScaling(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "shard-scaling",
		Title:   "Aggregate Debit-Credit throughput (txns/sec) vs shard count",
		Headers: []string{"Shards", "Aggregate txn/s", "Per-shard txn/s", "Speedup"},
		Notes: append(runNotes(cfg),
			"same total transaction count per row, striped round-robin across shards (active backup, K=1, 1-safe commit)"),
	}
	txns := cfg.DCTxns
	if txns > 20_000 {
		txns = 20_000 // the sweep repeats the work per row
	}
	var base float64
	for _, shards := range []int{1, 2, 4} {
		tps, err := shardCell(cfg, shards, txns)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = tps
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards), f0(tps), f0(tps / float64(shards)),
			fmt.Sprintf("%.2fx", tps/base),
		})
	}
	return t, nil
}

// shardCell measures one shard count through tpc.RunSharded, dividing the
// row's transaction budget evenly across the shards: throughput is
// aggregated over the slowest shard's clock.
func shardCell(cfg RunConfig, shards int, txns int64) (float64, error) {
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  cfg.DBSize,
		Backups: 1,
	}, shards)
	if err != nil {
		return 0, err
	}
	perShard := txns / int64(shards)
	if perShard < 1 {
		perShard = 1
	}
	warm := cfg.Warmup / int64(shards)
	if warm > perShard {
		warm = perShard
	}
	res, err := tpc.RunSharded(sc, func(dbSize int) (tpc.Workload, error) {
		return tpc.NewDebitCredit(dbSize)
	}, tpc.Options{Txns: perShard, Warmup: warm, Seed: cfg.Seed})
	if err != nil {
		return 0, err
	}
	if res.TPS <= 0 {
		return 0, fmt.Errorf("harness: shard cell consumed no simulated time")
	}
	return res.TPS, nil
}

// runGroupCommit sweeps the group-commit batch size under each commit
// safety level on the active scheme: 1-safe gains only the amortized
// pointer publish, while quorum and 2-safe amortize the acknowledgement
// round trip — the batched generalization of the paper's "commit does not
// wait" argument.
func runGroupCommit(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "group-commit",
		Title:   "Active-group Debit-Credit throughput (txns/sec) by commit batch and safety",
		Headers: []string{"Batch", "1-safe", "quorum", "2-safe"},
		Notes: append(runNotes(cfg),
			"K=3 backups; batch 1 = group commit off; commits in an unflushed batch at a crash are lost (batched 1-safe window)"),
	}
	txns := cfg.DCTxns
	if txns > 20_000 {
		txns = 20_000
	}
	for _, batch := range []int{1, 4, 16} {
		row := []string{fmt.Sprintf("%d", batch)}
		for _, s := range []replication.Safety{replication.OneSafe, replication.QuorumSafe, replication.TwoSafe} {
			group := groupConfig(vista.V3InlineLog, replication.Active, cfg.DBSize, nil)
			group.Backups, group.Safety, group.CommitBatch = 3, s, batch
			res, err := runCell(cfg, benchDC, group, txns)
			if err != nil {
				return nil, err
			}
			row = append(row, f0(res.TPS))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
