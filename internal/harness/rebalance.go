package harness

import (
	"fmt"

	"repro"
	"repro/internal/tpc"
)

// The elastic-placement experiment: throughput delivered while the
// deployment grows 2 → 4 → 8 shards online, ranges migrating under the
// live commit stream, with the exact acked-write audit as the soundness
// column. Registered with the capability extensions.
func init() {
	register(Experiment{
		ID:    "rebalance",
		Title: "Online rebalance: throughput while the deployment grows 2 → 4 → 8 shards",
		Run:   runRebalance,
	})
}

// runRebalance grows a two-shard quorum-commit deployment with two
// backups per shard to four shards, then to eight.
func runRebalance(cfg RunConfig) (*Table, error) {
	const backups = 2
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  cfg.DBSize,
		Backups: backups,
		Safety:  repro.QuorumSafe,
		Metrics: true,
	}, 2)
	if err != nil {
		return nil, err
	}
	res, err := tpc.RunRebalance(sc, func(dbSize int) (tpc.Workload, error) {
		return tpc.NewDebitCredit(dbSize)
	}, cfg.Warmup, cfg.Seed)
	if err != nil {
		return nil, err
	}

	if res.LostAckedWrites != 0 {
		return nil, fmt.Errorf("harness: rebalance lost %d acked writes", res.LostAckedWrites)
	}

	phases := []string{"baseline", "grow-4", "grow-8", "final"}
	t := &Table{
		ID:    "rebalance",
		Title: "Debit-Credit throughput (txns/sec) while the deployment grows online",
		Headers: []string{"Phase", "Windows", "Mean txn/s", "Worst txn/s", "vs baseline",
			"Ranges moved", "Bytes shipped", "Epoch", "Stamps acked", "Lost acked"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("grows 2 → 4 → 8 shards online (active backup, K=%d, quorum commit); the mover rides the commit stream",
				backups),
			fmt.Sprintf("the run row covers every window and carries the migration totals and the acked-write audit (Lost acked must be 0); %d cut-over stalls",
				sc.RebalanceProgress().Stalls)),
	}
	row := func(name string, phases ...string) []string {
		n, mean, worst := tpc.PhaseStats(res.Windows, phases...)
		return []string{name, fmt.Sprintf("%d", n), f0(mean), f0(worst),
			fmt.Sprintf("%.2fx", mean/res.BaseTPS), "-", "-", "-", "-", "-"}
	}
	for _, phase := range phases {
		t.Rows = append(t.Rows, row(phase, phase))
	}
	run := row("run", phases...)
	copy(run[5:], []string{
		fmt.Sprintf("%d", res.RangesMoved),
		fmt.Sprintf("%d", res.BytesShipped),
		fmt.Sprintf("%d", res.PlacementEpoch),
		fmt.Sprintf("%d", res.AuditWrites),
		fmt.Sprintf("%d", res.LostAckedWrites),
	})
	t.Rows = append(t.Rows, run)
	return t, nil
}
