package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/tpc"
)

// The durability experiment is the disk tier's kill-and-restart matrix:
// at each snapshot interval, a committed Debit-Credit run is cut down by
// a full-cluster power loss, the unsynced WAL tails are corrupted per
// mode, and the deployment, powered back on in place, must recover every
// acked-durable transaction with a replay-exact image. Each row is one
// drill: the seeded kill point is the warm-up, tpc.ColdRestart the step.
// The interval column is the operational trade the tier exposes: tighter
// snapshots buy shorter replay at the cost of more checkpoint writes.
func init() {
	register(Experiment{
		ID:    "durability",
		Title: "Disk tier: cold-restart recovery vs snapshot interval, with torn-write tails",
		Run:   runDurability,
	})
}

// The durability cell's deployment: active backup, K=2, quorum commit in
// batches of 8, over a 4 MB database.
const (
	durabilityDB      = 4 << 20
	durabilityBackups = 2
)

func runDurability(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:    "durability",
		Title: "Cold-restart recovery: snapshot interval × corrupt-tail mode",
		Headers: []string{"SnapshotEvery", "Tail", "Committed", "Durable", "Recovered",
			"Replayed", "TruncBytes", "LostAcked"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("disk tier: every replica appends its redo records to a WAL, one fdatasync per commit batch, and snapshots every SnapshotEvery commits; active backup, K=%d, quorum commit, batch 8, %d MB database, kill after ~240 txns (seeded)", durabilityBackups, durabilityDB>>20),
			"Durable = last fdatasync'd commit at the power loss; LostAcked is 0: the drill fails when Recovered falls below Durable"),
	}
	var wallMS []string
	for _, every := range []int{32, 128, 512} {
		for _, mode := range []string{tpc.TailIntact, tpc.TailTorn, tpc.TailMixed} {
			row, wall, err := durabilityRow(every, mode, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("harness: durability snap=%d/%s: %w", every, mode, err)
			}
			wallMS = append(wallMS, f1(wall.Seconds()*1e3))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, "restart wall ms per row, host time of the restart step — tail treatment, recovery from disk, the stream's rewind (disk replay is host work, not simulated work): "+
		strings.Join(wallMS, " "))
	return t, nil
}

// durabilityRow drills one deployment's Debit-Credit stream to the seeded
// kill point and the cold restart, audits the recovered image, and
// returns the row and the restart step's host wall time.
func durabilityRow(every int, mode string, seed uint64) ([]string, time.Duration, error) {
	dir, err := os.MkdirTemp("", "repro-durability-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	c, err := repro.New(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      durabilityDB,
		Backups:     durabilityBackups,
		Safety:      repro.QuorumSafe,
		CommitBatch: 8,
		Durability:  repro.DurabilityConfig{Dir: dir, SnapshotEvery: every},
	})
	if err != nil {
		return nil, 0, err
	}
	defer c.Close() // for the error paths; the last line closes it checked
	stream, err := dcStream(c, seed)
	if err != nil {
		return nil, 0, err
	}
	restart, kill, err := tpc.ColdRestart(stream, mode, seed)
	if err != nil {
		return nil, 0, err
	}
	var committed, durable uint64
	var cut time.Time
	powerLoss := tpc.Step{Phase: "power-loss", Act: func(c *repro.Cluster) error {
		committed, durable, cut = c.Committed(), c.Durability().DurableSeq, time.Now()
		return nil
	}}
	if _, err := tpc.Drill(c, stream.One, time.Millisecond, kill, powerLoss, restart); err != nil {
		return nil, 0, err
	}
	wall := time.Since(cut)
	// The recovered image must be exactly "state after Recovered commits"
	// of the stream: not one byte of a torn transaction applied, not one
	// byte of a recovered one missing.
	if _, err := stream.Audit(); err != nil {
		return nil, 0, err
	}
	rec := c.Durability().Recovery
	return []string{fmt.Sprint(every), mode, fmt.Sprint(committed), fmt.Sprint(durable), fmt.Sprint(c.Committed()),
		fmt.Sprint(rec.Replayed), fmt.Sprint(rec.TruncatedBytes), "0"}, wall, c.Close()
}
