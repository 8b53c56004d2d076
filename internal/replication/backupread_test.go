package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// onBackup pins a read to the pair's one backup.
var onBackup = replication.ReadSpec{Replica: 1}

// TestBackupServesConsistentReads: the active backup's database copy is
// transaction-consistent at every applied commit, so read-only queries can
// be offloaded to it while the primary keeps committing — the paper's
// Section 1 asks "whether the backup can or should be used to execute
// transactions itself". A read pinned to the backup (ReadSpec.Replica)
// observes its applied prefix and charges its CPU.
func TestBackupServesConsistentReads(t *testing.T) {
	pair := newPair(t, replication.Active, vista.V3InlineLog)

	write := func(slot int, fill byte) {
		tx, err := pair.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(slot*64, 64); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(slot*64, bytes.Repeat([]byte{fill}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		write(i, byte(i+1))
	}
	pair.Settle(10 * sim.Microsecond)

	if got := pair.AppliedTxns(0); got != 60 {
		t.Fatalf("backup applied %d of 60 commits after settle", got)
	}
	buf := make([]byte, 64)
	for i := 0; i < 60; i++ {
		if res, err := pair.RouteRead(i*64, buf, onBackup); err != nil || res.Replica != 1 || res.Seq != 60 {
			t.Fatalf("read of slot %d pinned to the backup: %+v, %v", i, res, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i + 1)}, 64)) {
			t.Fatalf("backup read of slot %d inconsistent", i)
		}
	}
	// Reads charge the backup's CPU, not the primary's.
	if pair.Backup().Clock.Now() == 0 {
		t.Fatal("backup reads charged no simulated time")
	}
}

func TestBackupReadValidation(t *testing.T) {
	passive := newPair(t, replication.Passive, vista.V3InlineLog)
	if _, err := passive.RouteRead(0, make([]byte, 8), onBackup); !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("passive backup served a read: %v", err)
	}
	active := newPair(t, replication.Active, vista.V3InlineLog)
	if _, err := active.RouteRead(testDB-4, make([]byte, 8), onBackup); !errors.Is(err, vista.ErrBounds) {
		t.Fatalf("out-of-bounds backup read: %v", err)
	}
}
