package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/tpc"
)

// The elastic-placement experiment: throughput delivered while the
// deployment grows 2 → 4 → 8 shards online, ranges migrating under the
// live commit stream, the final image audited against the replay oracle.
// Registered with the capability extensions.
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
	stream, err := dcStream(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	phases := []string{"baseline", "grow-4", "grow-8", "final"}
	windows, err := tpc.Drill(sc, stream.One, 10*time.Millisecond, cfg.Warmup,
		tpc.Step{Phase: "baseline", Windows: 3}, tpc.Grow(4), tpc.Grow(8), tpc.Step{Phase: "final", Windows: 3})
	if err != nil {
		return nil, err
	}
	audited, err := stream.Audit()
	if err != nil {
		return nil, fmt.Errorf("harness: rebalance: %w", err)
	}

	t := &Table{
		ID:    "rebalance",
		Title: "Debit-Credit throughput (txns/sec) while the deployment grows online",
		Headers: []string{"Phase", "Windows", "Mean txn/s", "Worst txn/s", "vs baseline",
			"Ranges moved", "Bytes shipped", "Epoch", "Audited txns"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("grows 2 → 4 → 8 shards online (active backup, K=%d, quorum commit); the mover rides the commit stream",
				backups),
			fmt.Sprintf("the run row covers every window and carries the migration totals; Audited txns = the stream's commits, warmup included, whose replayed image the final image matched byte for byte; %d cut-over stalls",
				sc.RebalanceProgress().Stalls)),
	}
	_, base, _ := tpc.PhaseStats(windows, "baseline")
	row := func(name string, phases ...string) []string {
		n, mean, worst := tpc.PhaseStats(windows, phases...)
		return []string{name, fmt.Sprintf("%d", n), f0(mean), f0(worst),
			fmt.Sprintf("%.2fx", mean/base), "-", "-", "-", "-"}
	}
	for _, phase := range phases {
		t.Rows = append(t.Rows, row(phase, phase))
	}
	snap := sc.Metrics()
	run := row("run", phases...)
	copy(run[5:], []string{
		fmt.Sprintf("%d", snap.Counter("place.ranges_moved")),
		fmt.Sprintf("%d", snap.Counter("place.bytes_shipped")),
		fmt.Sprintf("%d", sc.PlacementEpoch()),
		fmt.Sprintf("%d", audited),
	})
	t.Rows = append(t.Rows, run)
	return t, nil
}
