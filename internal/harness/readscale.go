package harness

import (
	"fmt"

	"repro"
	"repro/internal/tpc"
)

// The readscale experiment measures the replica-read subsystem: the
// read-heavy mix on one replicated cluster, once per consistency mode.
// The primary row is the baseline — every read at the primary's view,
// served by a backup only when it has applied all the primary committed,
// which an open group-commit batch rarely allows — and the ryw/bounded/
// quorum rows route reads through the backups' applied views, reporting
// throughput on the replica-aware wall clock (primary and read-serving
// backups run in parallel). RunKV's built-in staleness audit runs in
// every row: a read that breaks its mode's contract is a counted
// violation, and the cell fails the repro if any appear.
func init() {
	register(Experiment{
		ID:    "readscale",
		Title: "Read scaling: backups serving reads under a consistency knob",
		Run:   runReadScale,
	})
}

// runReadScale runs the read-heavy mix at quorum commit on an
// active-scheme cluster with three backups and a group-commit batch of 96.
func runReadScale(cfg RunConfig) (*Table, error) {
	const (
		db      = 8 << 20
		backups = 3
		batch   = 96
		// The advertised bound must exceed the group-commit batch: commits
		// parked in the open batch count against every backup's lag.
		bound = batch + 32
	)

	t := &Table{
		ID:      "readscale",
		Title:   "Replica reads per consistency mode (read-heavy mix)",
		Headers: []string{"Mode", "ops/s", "x primary", "Replica reads", "Primary reads", "Repaired", "Stale violations"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=%d, quorum commit, group-commit batch %d, %d MB database, %d records, %d measured ops per cell",
				backups, batch, db>>20, kvRecords, kvOps),
			fmt.Sprintf("bounded rows advertise a staleness bound of %d commit sequences; the audit fails any read outside its bound", bound),
			"ops/s uses the replica-aware wall clock: the primary and the read-serving backups run in parallel"),
	}
	var base float64
	for _, mode := range []repro.ReadMode{repro.ReadPrimary, repro.ReadYourWrites, repro.ReadBounded, repro.ReadQuorum} {
		c, err := repro.New(repro.Config{
			Version:     repro.V3InlineLog,
			Backup:      repro.ActiveBackup,
			DBSize:      db,
			Backups:     backups,
			Safety:      repro.QuorumSafe,
			CommitBatch: batch,
		})
		if err != nil {
			return nil, err
		}
		res, err := tpc.RunKV(c, tpc.KVOptions{
			Mix:            tpc.MixReadHeavy,
			Ops:            kvOps,
			Warmup:         kvOps / 10,
			Seed:           cfg.Seed,
			ReadMode:       mode,
			StalenessBound: bound,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: readscale %s: %w", mode, err)
		}
		if res.StaleViolations != 0 {
			return nil, fmt.Errorf("harness: readscale %s: %d stale-read violations", mode, res.StaleViolations)
		}
		if mode == repro.ReadPrimary {
			base = res.OPS
		}
		ratio := "1.00"
		if base > 0 {
			ratio = fmt.Sprintf("%.2f", res.OPS/base)
		}
		t.Rows = append(t.Rows, []string{
			mode.String(),
			f0(res.OPS),
			ratio,
			fmt.Sprintf("%d", res.ReplicaReads),
			fmt.Sprintf("%d", res.PrimaryReads),
			fmt.Sprintf("%d", res.Repaired),
			fmt.Sprintf("%d", res.StaleViolations),
		})
	}
	return t, nil
}
