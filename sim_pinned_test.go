package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

// TestNewSimPinned pins the paper's numbers on the deployment New builds:
// Debit-Credit, V3 / active / K=3 / quorum, 64 MiB, seed 1, 2 000 warm-up
// and 200 000 measured transactions, with and without group commit, and
// with a CrashPrimary + Failover + Repair before measured transaction
// 100 001. Simulated time is deterministic, so the constants below are
// exact: they were measured on the leaf Cluster that New returned before
// the router became the one deployment type, and any change to the router
// that moves them has changed the model, not just the code.
func TestNewSimPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, 800 000 transactions: nothing for the race detector to find, a minute for it to look")
	}
	const warmup, measured, crashAt = 2_000, 200_000, 100_001
	cases := []struct {
		batch   int
		crash   bool
		elapsed time.Duration
		traffic repro.Traffic
		commits int64
	}{
		{1, false, 1_965_677_474, repro.Traffic{ModifiedBytes: 5_600_000, MetaBytes: 8_800_000}, 202_000},
		{16, false, 620_739_974, repro.Traffic{ModifiedBytes: 5_600_000, MetaBytes: 7_300_000}, 202_000},
		// Failover restarts the serving node's counters, and the promoted
		// survivor establishes a fresh redo lane: the second half ships what
		// the first did (28 + 44 and 28 + 36.5 B/txn), and no undo data.
		// Repair returns with its transfer off the link, so the second half
		// also takes the time the first did.
		{1, true, 983_832_931, repro.Traffic{ModifiedBytes: 2_799_972, MetaBytes: 4_399_956}, 99_999},
		{16, true, 311_371_354, repro.Traffic{ModifiedBytes: 2_799_972, MetaBytes: 3_649_964}, 99_999},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("batch%d/crash=%v", tc.batch, tc.crash), func(t *testing.T) {
			db, err := repro.New(repro.Config{
				Version:     repro.V3InlineLog,
				Backup:      repro.ActiveBackup,
				Backups:     3,
				Safety:      repro.QuorumSafe,
				DBSize:      64 << 20,
				CommitBatch: tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, err := tpc.NewDebitCredit(64 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Populate(db.Load); err != nil {
				t.Fatal(err)
			}
			r := tpc.NewRand(1)
			txn := func(i int64) {
				tx, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Txn(r, tx, i); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(0); i < warmup; i++ {
				txn(i)
			}
			db.ResetMeasurement()
			for i := int64(0); i < measured; i++ {
				if tc.crash && i == crashAt {
					must(t, db.CrashPrimary())
					must(t, db.Failover())
					must(t, db.Repair())
				}
				txn(i)
			}
			must(t, db.Flush())
			if got := db.Elapsed(); got != tc.elapsed {
				t.Errorf("Elapsed = %d ns, pinned %d ns", got.Nanoseconds(), tc.elapsed.Nanoseconds())
			}
			if got := db.NetTraffic(); got != tc.traffic {
				t.Errorf("NetTraffic = %+v, pinned %+v", got, tc.traffic)
			}
			if got := db.Stats().Commits; got != tc.commits {
				t.Errorf("Stats.Commits = %d, pinned %d", got, tc.commits)
			}
		})
	}
}
