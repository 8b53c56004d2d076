package replication_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

func TestRepairPreconditions(t *testing.T) {
	pair := newPair(t, replication.Passive, vista.V3InlineLog)
	if err := pair.Repair(); !errors.Is(err, replication.ErrNotRepairable) {
		t.Fatalf("repair before failover: %v", err)
	}
}

// repairWithin runs a synchronous repair on its own goroutine and fails the
// test if it has not returned in time: a Repair that cannot finish spins
// instead of returning an error.
func repairWithin(t *testing.T, repair func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- repair() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Repair has not returned: it is waiting for a cut-over that needs the open batch sealed")
	}
}

// TestRepairSealsOpenBatch: a joiner's cut-over waits for the open
// group-commit batch to close, and the commits that would close it may
// never come — Repair is synchronous — so Repair seals the batch itself.
func TestRepairSealsOpenBatch(t *testing.T) {
	const commits = 3
	for _, tc := range []struct {
		name  string
		batch int
		scope bool
	}{
		{"CommitBatch-tail", 16, false},
		{"deferral-scope", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGCGroup(t, replication.QuorumSafe, tc.batch)
			if tc.scope {
				g.Defer()
			}
			for i := 0; i < commits; i++ {
				commitSlot(t, g, i, byte(i+1))
			}
			if got := g.AppliedTxns(0); got != 0 {
				t.Fatalf("backup applied %d transactions: the batch is not open", got)
			}
			if err := g.CrashBackup(0); err != nil {
				t.Fatal(err)
			}
			repairWithin(t, func() error {
				err := g.Repair()
				return err
			})
			// The crashed backup was dropped, so the joiner is the last of
			// the three.
			if st := g.BackupState(2); st != replication.StateInSync {
				t.Fatalf("joiner is %v after Repair, want InSync", st)
			}
			if got := g.AppliedTxns(0); got != commits {
				t.Fatalf("backup applied %d transactions after Repair, want %d", got, commits)
			}
			if tc.scope {
				if err := g.Seal(); err != nil {
					t.Fatalf("seal after the repair = %v, want nil", err)
				}
			}
		})
	}
}

// TestChainedFailover is the full cluster life: run, crash, fail over,
// re-join the old primary from its own memory, run more, crash the survivor,
// fail over again — every committed transaction must be alive on the first
// machine, serving again.
func TestChainedFailover(t *testing.T) {
	for _, first := range []struct {
		mode replication.Mode
		v    vista.Version
	}{
		{replication.Passive, vista.V0Vista},
		{replication.Passive, vista.V1MirrorCopy},
		{replication.Passive, vista.V3InlineLog},
		{replication.Active, vista.V3InlineLog},
	} {
		t.Run(first.mode.String()+"/"+first.v.String(), func(t *testing.T) {
			// The oracle is a standalone group driven through the same
			// two phases of transactions.
			pair, oracle := newPair(t, first.mode, first.v), newPair(t, replication.Standalone, first.v)
			first150 := func(g *replication.Group) *tpc.DebitCredit {
				t.Helper()
				w, err := tpc.NewDebitCredit(testDB)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tpc.Run(g, w, tpc.Options{Txns: 150, Seed: 31}); err != nil {
					t.Fatal(err)
				}
				return w
			}
			// More traffic on the repaired deployment (drive the store
			// directly so the workload continues where it left off).
			next100 := func(g *replication.Group, w *tpc.DebitCredit) {
				t.Helper()
				r := tpc.NewRand(99)
				for i := int64(0); i < 100; i++ {
					tx, err := g.Begin()
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Txn(r, tx, 1000+i); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			next100(oracle, first150(oracle))
			w := first150(pair)
			pair.Settle(10 * sim.Microsecond)
			if err := pair.Crash(); err != nil {
				t.Fatal(err)
			}
			if _, err := pair.Failover(); err != nil {
				t.Fatal(err)
			}

			// Machine 2 serves; machine 1 re-joins as its backup.
			if err := pair.Repair(); err != nil {
				t.Fatal(err)
			}
			if pair.Store().Committed() != 150 {
				t.Fatalf("survivor lost commits before repair: %d", pair.Store().Committed())
			}

			next100(pair, w)
			pair.Settle(10 * sim.Microsecond)
			if err := pair.Crash(); err != nil {
				t.Fatal(err)
			}
			st, err := pair.Failover()
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Committed(); got != 250 {
				t.Fatalf("after chained failover: %d commits survive, want 250", got)
			}

			// The promoted machine's database must equal the oracle's.
			want := make([]byte, testDB)
			got := make([]byte, testDB)
			oracle.Store().ReadRaw(0, want)
			st.ReadRaw(0, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("promoted machine diverges at byte %d", i)
				}
			}

			// And it keeps serving.
			tx, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.SetRange(0, 8); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(0, []byte("3rdlife!")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepairReplicationIsLive: writes after Repair really cross the new
// SAN link (category counters move on the survivor's new attachment).
func TestRepairReplicationIsLive(t *testing.T) {
	pair := newPair(t, replication.Passive, vista.V3InlineLog)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpc.Run(pair, w, tpc.Options{Txns: 50, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := pair.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := pair.Failover(); err != nil {
		t.Fatal(err)
	}
	if err := pair.Repair(); err != nil {
		t.Fatal(err)
	}

	tx, err := pair.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(64, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(64, []byte("replicated-again")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pair.Settle(10 * sim.Microsecond)
	if pair.NetBytes()[2] == 0 { // CatUndo
		t.Fatal("no undo bytes crossed the new link")
	}
	db := pair.Backup().Space.ByName(vista.RegionDB)
	got := make([]byte, 16)
	db.ReadRaw(64, got)
	if string(got) != "replicated-again" {
		t.Fatalf("new backup missing the write: %q", got)
	}
}
