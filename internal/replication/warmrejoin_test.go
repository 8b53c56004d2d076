package replication_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/vista"
)

// TestWarmRejoinByteExact drives every warm re-join there is — a crashed
// backup, a partitioned one, the crashed primary after a failover, a
// re-joiner that crashes during its own join, the same node crashing again —
// through a seeded mix of loads, committed and aborted transactions and
// crashes that leave an open group-commit batch or an open transaction
// behind, under both backup schemes, each with and without group commit
// (the batching rows check that they batch). Every node re-joins from its own
// memory (no spare is ever enrolled), and after every cut-over each backup's
// copy of every region the scheme syncs equals the primary's byte for byte.
func TestWarmRejoinByteExact(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Active, replication.Passive} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/batch%d", mode, batch), func(t *testing.T) {
				var diverged, warm, warmPrimary int
				// A passive 1-safe commit never batches: the passive batch
				// row runs at quorum.
				safety := replication.OneSafe
				if mode == replication.Passive && batch > 1 {
					safety = replication.QuorumSafe
				}
				for seed := int64(1); seed <= 4; seed++ {
					d, w, wp := runWarmRejoinScenario(t, mode, batch, safety, seed)
					diverged += d
					warm += w
					warmPrimary += wp
				}
				// The schedule must reach the cases it is for: an old
				// primary holding commits its survivors never saw, and
				// re-joins that ship less than a full transfer would, an
				// old primary's among them.
				if mode == replication.Active && batch > 1 && diverged == 0 {
					t.Error("no primary crash left an open batch behind")
				}
				if warm == 0 || warmPrimary == 0 {
					t.Errorf("%d re-joins, %d of them an old primary's, shipped less than a full transfer", warm, warmPrimary)
				}
			})
		}
	}
}

// runWarmRejoinScenario runs one seeded schedule and returns how many
// failovers dropped commits the old primary held, how many re-joins planned
// fewer bytes than a full transfer of the written pages, and how many of
// those re-joined an old primary.
func runWarmRejoinScenario(t *testing.T, mode replication.Mode, batch int, safety replication.Safety, seed int64) (diverged, warm, warmPrimary int) {
	t.Helper()
	k := 3
	if safety == replication.QuorumSafe {
		k = 5 // a quorum outlives a backup crash and a primary crash together
	}
	reg := obs.NewRegistry()
	g, err := replication.NewGroup(replication.Config{
		Mode:        mode,
		Store:       vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
		Backups:     k,
		Safety:      safety,
		CommitBatch: batch,
		Obs:         reg,
	})
	mustNil(t, err)
	if batch > 1 {
		defer func() {
			snap := reg.Snapshot()
			if b, n := snap.Counter(replication.MetricCommitBatches), snap.Counter(replication.MetricCommitTxns); b == 0 || b >= n {
				t.Errorf("seed %d sealed %d batches for %d transactions: the row does not batch", seed, b, n)
			}
		}()
	}
	rng := rand.New(rand.NewSource(seed))
	pages := sparseDB / 4096
	spot := func() int { return rng.Intn(pages/3)*3*4096 + rng.Intn(4096-64) }
	fill := func() []byte {
		b := make([]byte, 64)
		rng.Read(b)
		return b
	}
	writes := func(tx replication.TxHandle) {
		for w := 1 + rng.Intn(3); w > 0; w-- {
			off := spot()
			mustNil(t, tx.SetRange(off, 64))
			mustNil(t, tx.Write(off, fill()))
		}
	}
	traffic := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if rng.Intn(10) == 0 {
				g.Settle(g.QuiesceGrace())
				mustNil(t, g.Load(spot(), fill()))
				continue
			}
			tx, err := g.Begin()
			mustNil(t, err)
			writes(tx)
			if rng.Intn(6) == 0 {
				mustNil(t, tx.Abort())
			} else {
				mustNil(t, tx.Commit())
			}
		}
	}
	names := func() []string {
		out := []string{g.Primary().Name}
		for i := 0; i < g.Backups(); i++ {
			out = append(out, g.BackupNode(i).Name)
		}
		slices.Sort(out)
		return out
	}
	members := names()
	// repair starts the re-join and counts it warm if it plans less than a
	// full transfer; it returns whether it did.
	repair := func() bool {
		t.Helper()
		full := writtenBytes(g)
		mustNil(t, g.RepairAsync())
		if st := g.RepairStatus(); st.Active && st.BytesPlanned < full {
			warm++
			return true
		}
		return false
	}
	primaryRepair := func() {
		t.Helper()
		if repair() {
			warmPrimary++
		}
	}
	heal := func(when string) {
		t.Helper()
		for i := 0; g.RepairStatus().Active; i++ {
			if i > 100000 {
				t.Fatalf("%s: repair never completed: %+v", when, g.RepairStatus())
			}
			traffic(1)
		}
		for i := 0; i < g.Backups(); i++ {
			if st := g.BackupState(i); st != replication.StateInSync {
				t.Fatalf("%s: backup %d is %v after the repair", when, i, st)
			}
		}
		if got := names(); !slices.Equal(got, members) {
			t.Fatalf("%s: members %v, want the original %v re-joined", when, got, members)
		}
		checkSparse(t, g, when)
	}
	failover := func() {
		t.Helper()
		before := g.Committed()
		mustNil(t, g.Crash())
		_, err := g.Failover()
		mustNil(t, err)
		if g.Committed() < before {
			diverged++
		}
	}

	traffic(40)
	for round := 0; round < 8; round++ {
		when := fmt.Sprintf("seed %d round %d", seed, round)
		victim := rng.Intn(k)
		switch rng.Intn(5) {
		case 0: // a backup crash; sometimes it crashes again during its own join
			mustNil(t, g.CrashBackup(victim))
			traffic(1 + rng.Intn(30))
			repair()
			if rng.Intn(2) == 0 && g.RepairStatus().Active {
				traffic(rng.Intn(3))
				mustNil(t, g.CrashBackup(victim)) // mid-join: the copy is fuzzy now
				traffic(1 + rng.Intn(10))
				repair()
			}
			heal(when + " backup re-join")
		case 1: // the primary dies with its last commits unpublished
			traffic(1 + rng.Intn(10))
			failover()
			traffic(rng.Intn(20))
			primaryRepair()
			heal(when + " old primary re-join")
		case 2: // the primary dies mid-transaction
			tx, err := g.Begin()
			mustNil(t, err)
			writes(tx)
			failover()
			_ = tx.Abort() // the handle died with its node
			traffic(rng.Intn(20))
			primaryRepair()
			heal(when + " mid-transaction re-join")
		case 3: // a backup crash and a primary crash before the repair
			mustNil(t, g.CrashBackup(victim))
			traffic(1 + rng.Intn(10))
			failover()
			traffic(rng.Intn(20))
			repair()
			heal(when + " two re-joins")
		case 4: // a partition, resumed after a stretch of traffic
			mustNil(t, g.PauseBackup(victim))
			traffic(1 + rng.Intn(30))
			mustNil(t, g.ResumeBackup(victim))
			repair()
			heal(when + " resumed backup re-join")
		}
		traffic(rng.Intn(20))
	}
	return diverged, warm, warmPrimary
}

// TestWarmRejoinPastTheRecord: a crashed backup re-joins by delta while the
// commits since its crash fit in the commit-stamp record, and by a full
// transfer once they outrun it.
func TestWarmRejoinPastTheRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    replication.Mode
		commits int
		full    bool
	}{
		{"10", replication.Active, 10, false},
		{"5000", replication.Active, 5000, true},
		{"passive-10", replication.Passive, 10, false},
		{"passive-5000", replication.Passive, 5000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := replication.NewGroup(replication.Config{
				Mode:    tc.mode,
				Store:   vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
				Backups: 1,
			})
			mustNil(t, err)
			for p := 0; p < 8; p++ {
				mustNil(t, g.Load(p*4096, []byte("loaded")))
			}
			commit := func(i int) {
				tx, err := g.Begin()
				mustNil(t, err)
				mustNil(t, tx.SetRange(0, 8))
				mustNil(t, tx.Write(0, []byte(fmt.Sprintf("%8d", i))))
				mustNil(t, tx.Commit())
			}
			commit(-1) // the backup holds a commit both sides stamped
			g.Settle(g.QuiesceGrace())
			mustNil(t, g.CrashBackup(0))
			for i := 0; i < tc.commits; i++ {
				commit(i)
			}
			written := writtenBytes(g)
			mustNil(t, g.RepairAsync())
			if full := g.RepairStatus().BytesPlanned == written; full != tc.full {
				t.Fatalf("planned %d of %d written bytes, want a full transfer: %v", g.RepairStatus().BytesPlanned, written, tc.full)
			}
			mustNil(t, g.Repair())
			checkSparse(t, g, "re-join")
		})
	}
}

// TestWarmRejoinOfAResyncedSurvivor: a survivor re-synced behind the promoted
// node at a failover holds the promoted prefix exactly and stamps it, so a
// crash right after the takeover re-joins it with nothing to ship.
func TestWarmRejoinOfAResyncedSurvivor(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Active, replication.Passive} {
		t.Run(mode.String(), func(t *testing.T) {
			g := newGroup(t, mode, 2, replication.OneSafe)
			commitSlot(t, g, 0, 1)
			g.Settle(g.QuiesceGrace())
			mustNil(t, g.PauseBackup(1)) // it lags the node to be promoted
			for i := 1; i < 20; i++ {
				commitSlot(t, g, i*64, byte(i))
			}
			g.Settle(g.QuiesceGrace())
			mustNil(t, g.Crash())
			_, err := g.Failover()
			mustNil(t, err)
			// The re-synced survivor comes first, the old primary after it.
			mustNil(t, g.CrashBackup(0))
			mustNil(t, g.RepairAsync())
			if st := g.BackupState(0); st != replication.StateInSync {
				t.Fatalf("the re-synced survivor is %v after its re-join: it planned a transfer", st)
			}
			checkSparse(t, g, "re-join")
		})
	}
}

// TestWarmRejoinPastUncommittedBytes: a passive backup crashes holding
// commit 1, and the primary then writes bytes no commit names, which the
// other backup receives before the primary dies: an aborted transaction's
// retired undo records, or an open transaction's stores that the promoted
// node's takeover recovery rolls back. The promoted node held commit 1 only
// before those bytes, so the crashed backup's delta from commit 1 must ship
// them: no backup may stamp commit 1 after an abort, nor the promoted node
// after its recovery.
func TestWarmRejoinPastUncommittedBytes(t *testing.T) {
	for name, abort := range map[string]bool{"abort": true, "takeover-recovery": false} {
		t.Run(name, func(t *testing.T) {
			g := newGroup(t, replication.Passive, 2, replication.OneSafe)
			commitSlot(t, g, 0, 1)
			g.Settle(g.QuiesceGrace())
			mustNil(t, g.CrashBackup(1))
			tx, err := g.Begin()
			mustNil(t, err)
			mustNil(t, tx.SetRange(64*64, 64))
			mustNil(t, tx.Write(64*64, bytes.Repeat([]byte{2}, 64)))
			if abort {
				mustNil(t, tx.Abort())
			}
			g.Settle(g.QuiesceGrace()) // the stores reach backup 0
			mustNil(t, g.Crash())
			_, err = g.Failover()
			mustNil(t, err)
			mustNil(t, g.Repair())
			checkSparse(t, g, "re-join")
		})
	}
}
