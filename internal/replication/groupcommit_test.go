package replication_test

import (
	"bytes"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

const gcDB = 4 << 20

func newGCGroup(t *testing.T, safety replication.Safety, batch int) *replication.Group {
	t.Helper()
	g, err := replication.NewGroup(replication.Config{
		Mode:        replication.Active,
		Store:       vista.Config{Version: vista.V3InlineLog, DBSize: gcDB},
		Backups:     3,
		Safety:      safety,
		CommitBatch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// driveDC runs commits Debit-Credit transactions against the group.
func driveDC(t *testing.T, g *replication.Group, seed uint64, commits int) tpc.Workload {
	t.Helper()
	w, err := tpc.NewDebitCredit(gcDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	r := tpc.NewRand(seed)
	for i := 0; i < commits; i++ {
		tx, err := g.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if err := w.Txn(r, tx, int64(i)); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	return w
}

// TestGroupCommitQuorumZeroLoss is the acceptance property under group
// commit: batched quorum commits still lose nothing acknowledged. With
// CommitBatch=5 every fifth commit seals a batch, publishes one pointer
// and waits for the quorum once; crashing the primary plus one backup
// right after a sealed batch must preserve every flushed transaction, on
// exactly the replayed prefix state — the same invariant
// crashpoint_test.go checks for unbatched commits.
func TestGroupCommitQuorumZeroLoss(t *testing.T) {
	const seed = 77
	for _, tc := range []struct {
		name        string
		commits     int
		wantApplied int64
	}{
		// 40 = 8 full batches: everything flushed, everything survives.
		{"full-batches", 40, 40},
		// 43 leaves 3 commits in an open batch: they were never named by
		// a delivered pointer, so the survivors serve exactly the
		// 40-commit prefix — the batched 1-safe window, quantified.
		{"open-tail", 43, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGCGroup(t, replication.QuorumSafe, 5)
			w := driveDC(t, g, seed, tc.commits)

			if err := g.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := g.CrashBackup(1); err != nil { // any minority
				t.Fatal(err)
			}
			st, err := g.Failover()
			if err != nil {
				t.Fatal(err)
			}
			k := int64(st.Committed())
			if k != tc.wantApplied {
				t.Fatalf("recovered %d commits, want %d", k, tc.wantApplied)
			}
			ref, err := tpc.Replay(w, tpc.Options{Seed: seed}, k)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, gcDB)
			st.ReadRaw(0, got)
			if !bytes.Equal(got, ref) {
				t.Fatalf("recovered state does not match the %d-commit prefix", k)
			}
		})
	}
}

// TestGroupCommitFlushShipsTail: Flush (and Settle) seal the open batch,
// so an explicit flush before the crash closes the batched loss window.
func TestGroupCommitFlushShipsTail(t *testing.T) {
	g := newGCGroup(t, replication.QuorumSafe, 5)
	w := driveDC(t, g, 99, 43)
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed(); got != 43 {
		t.Fatalf("recovered %d commits after explicit Flush, want 43", got)
	}
	ref, err := tpc.Replay(w, tpc.Options{Seed: 99}, 43)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, gcDB)
	st.ReadRaw(0, got)
	if !bytes.Equal(got, ref) {
		t.Fatal("recovered state does not match the full prefix")
	}
}

// TestGroupCommitRingCapacityFlush: reserved-but-unpublished redo bytes
// must never outgrow the ring. An unbounded batch pushing multiple ring
// capacities of large records through the channel forces early capacity
// flushes instead of deadlocking the ring reservation (this panicked
// before the capacity guard in redoChannel.ship).
func TestGroupCommitRingCapacityFlush(t *testing.T) {
	// An open deferral scope: batchLimit is unbounded, so only the
	// capacity guard seals batches. Default ring is 1 MB; 400 x 8 KB
	// records push ~3.3 MB through it.
	g := newGCGroup(t, replication.QuorumSafe, 0)
	g.Defer()
	const (
		txns    = 400
		payload = 8 << 10
	)
	buf := make([]byte, payload)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	for i := 0; i < txns; i++ {
		tx, err := g.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if err := tx.SetRange(0, payload); err != nil {
			t.Fatalf("setrange %d: %v", i, err)
		}
		if err := tx.Write(0, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	g.Settle(10 * sim.Microsecond)
	if got := g.AppliedTxns(0); got != txns {
		t.Fatalf("backup applied %d of %d large-record commits", got, txns)
	}
}

// TestGroupCommitAmortizesAcks: batching must make the strong safety
// levels cheaper in simulated time (one ack round trip per batch instead
// of per transaction) while leaving the transaction stream's final state
// identical.
func TestGroupCommitAmortizesAcks(t *testing.T) {
	elapsed := func(batch int) (sim.Time, []byte) {
		g := newGCGroup(t, replication.TwoSafe, batch)
		g.ResetMeasurement()
		driveDC(t, g, 7, 60)
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, gcDB)
		g.Store().ReadRaw(0, buf)
		return g.Elapsed(), buf
	}
	plainTime, plainState := elapsed(1)
	batchTime, batchState := elapsed(8)
	if !bytes.Equal(plainState, batchState) {
		t.Fatal("group commit changed the committed state")
	}
	if batchTime >= plainTime {
		t.Fatalf("2-safe with batch 8 took %v, not faster than unbatched %v", batchTime, plainTime)
	}
}

// TestGroupCommitOffMatchesUnbatched: CommitBatch 0 and 1 are the same
// per-commit pipeline, bit-for-bit in simulated time — group commit off by
// default preserves the unbatched numbers exactly.
func TestGroupCommitOffMatchesUnbatched(t *testing.T) {
	run := func(batch int) sim.Time {
		g := newGCGroup(t, replication.QuorumSafe, batch)
		g.ResetMeasurement()
		driveDC(t, g, 11, 50)
		return g.Elapsed()
	}
	if t0, t1 := run(0), run(1); t0 != t1 {
		t.Fatalf("batch 0 elapsed %v != batch 1 elapsed %v", t0, t1)
	}
}
