package harness

import (
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/tpc"
)

// The durability experiment is the disk tier's kill-and-restart matrix:
// at each snapshot interval, a committed Debit-Credit run is cut down by
// a full-cluster power loss, the unsynced WAL tails are corrupted per
// mode, and a cold restart over the same directory must recover every
// acked-durable transaction with a replay-exact image. The interval
// column is the operational trade the tier exposes: tighter snapshots
// buy shorter replay at the cost of more checkpoint writes.
func init() {
	register(Experiment{
		ID:    "durability",
		Title: "Disk tier: cold-restart recovery vs snapshot interval, with torn-write tails",
		Run:   runDurability,
	})
}

func runDurability(cfg RunConfig) (*Table, error) {
	const (
		db      = 4 << 20
		backups = 2
	)
	t := &Table{
		ID:    "durability",
		Title: "Cold-restart recovery: snapshot interval × corrupt-tail mode",
		Headers: []string{"SnapshotEvery", "Tail", "Committed", "Durable", "Recovered",
			"Replayed", "TruncBytes", "LostAcked"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("disk tier: every replica appends its redo records to a WAL, one fdatasync per commit batch, and snapshots every SnapshotEvery commits; active backup, K=%d, quorum commit, batch 8, %d MB database, kill after ~240 txns (seeded)", backups, db>>20),
			"Durable = last fdatasync'd commit at the power loss; LostAcked is 0: the drill fails when Recovered falls below Durable"),
	}
	var recoveryMS []string
	for _, every := range []int{32, 128, 512} {
		for _, mode := range []string{tpc.TailIntact, tpc.TailTorn, tpc.TailMixed} {
			dir, err := os.MkdirTemp("", "repro-durability-*")
			if err != nil {
				return nil, err
			}
			open := func() (*repro.Cluster, error) {
				return repro.New(repro.Config{
					Version:     repro.V3InlineLog,
					Backup:      repro.ActiveBackup,
					DBSize:      db,
					Backups:     backups,
					Safety:      repro.QuorumSafe,
					CommitBatch: 8,
					Durability: repro.DurabilityConfig{
						Dir:           dir,
						SnapshotEvery: every,
					},
				})
			}
			w, err := tpc.NewDebitCredit(db)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			res, err := tpc.RunDurability(open, w, mode, cfg.Seed)
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("harness: durability snap=%d/%s: %w", every, mode, err)
			}
			recoveryMS = append(recoveryMS, f1(res.RecoveryWall.Seconds()*1e3))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", every),
				mode,
				fmt.Sprintf("%d", res.Total),
				fmt.Sprintf("%d", res.AckedDurable),
				fmt.Sprintf("%d", res.Recovered),
				fmt.Sprintf("%d", res.Recovery.Replayed),
				fmt.Sprintf("%d", res.Recovery.TruncatedBytes),
				"0", // RunDurability fails on any lost acked write
			})
		}
	}
	t.Notes = append(t.Notes, "recovery wall ms per row, host time (disk replay is host work, not simulated work): "+
		strings.Join(recoveryMS, " "))
	return t, nil
}
