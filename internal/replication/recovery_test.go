package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// newActiveGroup builds an active-scheme group over the shared test DB.
func newActiveGroup(t *testing.T, backups int, s replication.Safety) *replication.Group {
	t.Helper()
	g, err := replication.NewGroup(replication.Config{
		Mode:    replication.Active,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Backups: backups,
		Safety:  s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRepairAsyncNonBlocking is the acceptance criterion: transactions
// keep committing while a join is in flight — the committed count strictly
// increases between pumps — and the transfer completes without ever
// stopping the stream.
func TestRepairAsyncNonBlocking(t *testing.T) {
	g := newActiveGroup(t, 2, replication.OneSafe)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	r := tpc.NewRand(7)
	txn := int64(0)
	commit := func() {
		t.Helper()
		tx, err := g.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", txn, err)
		}
		if err := w.Txn(r, tx, txn); err != nil {
			t.Fatalf("txn %d: %v", txn, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", txn, err)
		}
		txn++
	}
	for i := 0; i < 30; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := g.RepairAsync(); err != nil {
		t.Fatalf("repair async: %v", err)
	}
	st := g.RepairStatus()
	if !st.Active || st.BytesPlanned == 0 {
		t.Fatalf("repair not active after RepairAsync: %+v", st)
	}

	// Commits must keep flowing while the transfer is in flight, and the
	// transfer must make progress underneath them.
	var midShipped int64
	sawMidFlight := false
	before := g.Committed()
	for i := 0; i < 200000 && g.RepairStatus().Active; i++ {
		prev := g.Committed()
		commit()
		if g.Committed() != prev+1 {
			t.Fatalf("commit %d did not land during repair", txn)
		}
		if i%100 == 0 {
			g.Settle(g.QuiesceGrace()) // idle periods let the copier stream
		}
		if st := g.RepairStatus(); st.Active && st.BytesShipped > midShipped {
			midShipped = st.BytesShipped
			sawMidFlight = true
		}
	}
	if st := g.RepairStatus(); st.Active {
		t.Fatalf("repair never completed: %+v", st)
	}
	if !sawMidFlight {
		t.Fatal("transfer never made observable progress while commits ran")
	}
	if g.Committed() <= before {
		t.Fatal("committed count did not increase during the repair")
	}

	// The joiner is a full member again: it acknowledges and its copy
	// converges with the primary after a settle.
	if got := g.BackupState(1); got != replication.StateInSync {
		t.Fatalf("joiner state %v after cut-over, want in-sync", got)
	}
	g.Settle(g.QuiesceGrace())
	want := make([]byte, testDB)
	got := make([]byte, testDB)
	g.Store().ReadRaw(0, want)
	g.BackupNode(1).Space.ByName(vista.RegionDB).ReadRaw(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("joiner's database diverges from the primary after cut-over")
	}

	// And it participates in failover like any replica.
	g.Settle(g.QuiesceGrace())
	total := g.Committed()
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	st2, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Committed() != total {
		t.Fatalf("failover after online repair lost commits: %d of %d", st2.Committed(), total)
	}
}

// TestDeltaResyncShipsLessThanFullDB is the second acceptance criterion: a
// briefly-partitioned backup re-enrolls by shipping only the pages it
// missed — strictly fewer bytes than the database — and serves as a full
// quorum member afterwards.
func TestDeltaResyncShipsLessThanFullDB(t *testing.T) {
	g := newActiveGroup(t, 3, replication.QuorumSafe)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	r := tpc.NewRand(11)
	txn := int64(0)
	commit := func() {
		t.Helper()
		tx, err := g.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", txn, err)
		}
		if err := w.Txn(r, tx, txn); err != nil {
			t.Fatalf("txn %d: %v", txn, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", txn, err)
		}
		txn++
	}
	for i := 0; i < 20; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	if err := g.PauseBackup(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	if err := g.ResumeBackup(2); err != nil {
		t.Fatal(err)
	}
	if got := g.BackupState(2); got != replication.StateGated {
		t.Fatalf("resumed backup state %v, want gated", got)
	}
	if err := g.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	st := g.RepairStatus()
	if st.Active {
		t.Fatalf("repair still active after synchronous Repair: %+v", st)
	}
	if st.BytesShipped == 0 {
		t.Fatal("delta resync shipped nothing")
	}
	if st.BytesShipped >= int64(testDB) {
		t.Fatalf("delta resync shipped %d bytes, not less than the %d-byte database", st.BytesShipped, testDB)
	}
	if got := g.BackupState(2); got != replication.StateInSync {
		t.Fatalf("resynced backup state %v, want in-sync", got)
	}

	// The rejoined replica's copy converges and it counts toward quorum:
	// with the two other backups partitioned, quorum (2 of 3) holds only
	// if the rejoined backup acknowledges.
	g.Settle(g.QuiesceGrace())
	want := make([]byte, testDB)
	got := make([]byte, testDB)
	g.Store().ReadRaw(0, want)
	g.BackupNode(2).Space.ByName(vista.RegionDB).ReadRaw(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("delta-resynced backup diverges from the primary")
	}
	if err := g.PauseBackup(0); err != nil {
		t.Fatal(err)
	}
	tx, err := g.Begin()
	if err != nil {
		t.Fatalf("quorum must hold with the rejoined backup acking: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestGapFreeResumeNoTransfer: a never-crashed backup whose partition
// provably covered no commits rejoins through ring catch-up alone — the
// repair ships ~0 bytes and the replica is immediately in sync.
func TestGapFreeResumeNoTransfer(t *testing.T) {
	g := newActiveGroup(t, 2, replication.OneSafe)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	r := tpc.NewRand(13)
	txn := int64(0)
	commit := func() {
		t.Helper()
		tx, err := g.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", txn, err)
		}
		if err := w.Txn(r, tx, txn); err != nil {
			t.Fatalf("txn %d: %v", txn, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", txn, err)
		}
		txn++
	}
	for i := 0; i < 25; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	// Nothing commits while the backup is away: its gap is empty.
	if err := g.ResumeBackup(1); err != nil {
		t.Fatal(err)
	}
	if err := g.RepairAsync(); err != nil {
		t.Fatalf("repair async: %v", err)
	}
	st := g.RepairStatus()
	if st.Active {
		t.Fatalf("gap-free rejoin left a transfer in flight: %+v", st)
	}
	if st.BytesShipped != 0 {
		t.Fatalf("gap-free rejoin shipped %d bytes, want 0", st.BytesShipped)
	}
	if got := g.BackupState(1); got != replication.StateInSync {
		t.Fatalf("gap-free rejoin state %v, want in-sync", got)
	}

	// Ring continuity: subsequent commits replicate to it seamlessly.
	for i := 0; i < 10; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	if got := g.AppliedTxns(1); got != uint64(txn) {
		t.Fatalf("rejoined backup applied %d of %d transactions", got, txn)
	}
	want := make([]byte, testDB)
	got := make([]byte, testDB)
	g.Store().ReadRaw(0, want)
	g.BackupNode(1).Space.ByName(vista.RegionDB).ReadRaw(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("gap-free rejoined backup diverges from the primary")
	}
}

// TestRepairAsyncNothingToRepair: a healthy group reports that there is
// nothing to do.
func TestRepairAsyncNothingToRepair(t *testing.T) {
	g := newActiveGroup(t, 2, replication.OneSafe)
	if err := g.RepairAsync(); !errors.Is(err, replication.ErrNotRepairable) {
		t.Fatalf("repair of a healthy group: %v", err)
	}
}

// TestRepairStatusPhases: the lifecycle is observable — a fresh join
// passes through syncing before completing, and the status retains the
// final byte counts.
func TestRepairStatusPhases(t *testing.T) {
	g := newActiveGroup(t, 1, replication.OneSafe)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	if err := g.PowerFailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := g.RepairAsync(); err != nil {
		t.Fatal(err)
	}
	st := g.RepairStatus()
	if st.Phase != "syncing" || st.Joining != 1 {
		t.Fatalf("fresh join status %+v, want syncing/1", st)
	}
	if err := g.Repair(); err != nil {
		t.Fatal(err)
	}
	st = g.RepairStatus()
	if st.Active || st.Phase != "idle" {
		t.Fatalf("completed repair status %+v", st)
	}
	// Populate writes a header and nothing else: a fresh join ships the pages
	// ever written, not the zeros around them.
	src, dst := dbRegion(g, -1), dbRegion(g, 0)
	written := 0
	for p := 0; p < src.Dirty.Pages(); p++ {
		if src.Dirty.Written(p) {
			written++
		}
	}
	if want := int64(written * src.Dirty.PageSize()); written == 0 || st.BytesShipped != want {
		t.Fatalf("fresh join shipped %d bytes, want the %d written pages' %d", st.BytesShipped, written, want)
	}
	want, got := make([]byte, testDB), make([]byte, testDB)
	src.ReadRaw(0, want)
	dst.ReadRaw(0, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("joiner differs from the primary at byte %d", firstDiff(got, want))
	}
}
