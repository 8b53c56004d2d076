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
	// The kill point is fixed: recovery cost is a function of the
	// snapshot interval and the tail, not of how long the run was.
	const txns = 240

	t := &Table{
		ID:    "durability",
		Title: "Cold-restart recovery: snapshot interval × corrupt-tail mode",
		Headers: []string{"SnapshotEvery", "Tail", "Committed", "Durable", "Recovered",
			"Replayed", "TruncBytes", "LostAcked"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("passive-style disk tier under the active scheme, K=%d, quorum commit, batch 8, %d MB database, kill after ~%d txns (seeded)", backups, db>>20, txns),
			"Durable = last fdatasync'd commit at the power loss; LostAcked must be 0 in every row"),
	}
	var recoveryMS []string
	for _, every := range []int{32, 128, 512} {
		for _, mode := range []string{tpc.TailIntact, tpc.TailTorn, tpc.TailMixed} {
			dir, err := os.MkdirTemp("", "repro-durability-*")
			if err != nil {
				return nil, err
			}
			open := func() (tpc.FaultDB, error) {
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
			res, err := tpc.RunDurability(open, w, tpc.DurabilityOptions{
				Txns:    txns,
				Corrupt: mode,
				Seed:    cfg.Seed,
			})
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("harness: durability snap=%d/%s: %w", every, mode, err)
			}
			if res.LostAckedWrites != 0 {
				return nil, fmt.Errorf("harness: durability snap=%d/%s lost %d acked writes", every, mode, res.LostAckedWrites)
			}
			recoveryMS = append(recoveryMS, f1(res.RecoveryWall.Seconds()*1e3))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", every),
				mode,
				fmt.Sprintf("%d", res.Total),
				fmt.Sprintf("%d", res.AckedDurable),
				fmt.Sprintf("%d", res.Recovered),
				fmt.Sprintf("%d", res.Replayed),
				fmt.Sprintf("%d", res.TruncatedBytes),
				fmt.Sprintf("%d", res.LostAckedWrites),
			})
		}
	}
	t.Notes = append(t.Notes, "recovery wall ms per row, host time (disk replay is host work, not simulated work): "+
		strings.Join(recoveryMS, " "))
	return t, nil
}
