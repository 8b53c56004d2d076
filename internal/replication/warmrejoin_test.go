package replication_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

// TestWarmRejoinByteExact drives every warm re-join there is — a crashed
// backup, the crashed primary after a failover, a re-joiner that crashes
// during its own join, the same node crashing again — through a seeded mix of
// loads, committed and aborted transactions and crashes that leave an open
// group-commit batch or an open transaction behind. Every node re-joins from
// its own memory (no spare is ever enrolled), and after every cut-over each
// backup's database equals the primary's byte for byte. The passive scheme
// re-joins a crashed backup by its gate snapshot, so it runs the backup-crash
// rounds alone.
func TestWarmRejoinByteExact(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Active, replication.Passive} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/batch%d", mode, batch), func(t *testing.T) {
				var diverged, warm int
				for seed := int64(1); seed <= 4; seed++ {
					d, w := runWarmRejoinScenario(t, mode, batch, seed)
					diverged += d
					warm += w
				}
				// The schedule must reach the cases it is for: an old
				// primary holding commits its survivors never saw, and
				// re-joins that ship less than a full transfer would.
				if mode == replication.Active && batch > 1 && diverged == 0 {
					t.Error("no primary crash left an open batch behind")
				}
				if warm == 0 {
					t.Error("no re-join shipped less than a full transfer")
				}
			})
		}
	}
}

// runWarmRejoinScenario runs one seeded schedule and returns how many
// failovers dropped commits the old primary held, and how many re-joins
// planned fewer bytes than a full transfer of the written pages.
func runWarmRejoinScenario(t *testing.T, mode replication.Mode, batch int, seed int64) (diverged, warm int) {
	t.Helper()
	const k = 3
	g, err := replication.NewGroup(replication.Config{
		Mode:        mode,
		Store:       vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
		Backups:     k,
		CommitBatch: batch,
	})
	mustNil(t, err)
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
	written := func() int64 {
		var n int64
		r := dbRegion(g, -1)
		for p := 0; p < r.Dirty.Pages(); p++ {
			if r.Dirty.Written(p) {
				n += int64(r.Dirty.PageSize())
			}
		}
		return n
	}
	repair := func() {
		t.Helper()
		full := written()
		mustNil(t, g.RepairAsync())
		if st := g.RepairStatus(); st.Active && st.BytesPlanned < full {
			warm++
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
		cases := 4
		if mode == replication.Passive {
			cases = 1
		}
		switch rng.Intn(cases) {
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
			repair()
			heal(when + " old primary re-join")
		case 2: // the primary dies mid-transaction
			tx, err := g.Begin()
			mustNil(t, err)
			writes(tx)
			failover()
			_ = tx.Abort() // the handle died with its node
			traffic(rng.Intn(20))
			repair()
			heal(when + " mid-transaction re-join")
		case 3: // a backup crash and a primary crash before the repair
			mustNil(t, g.CrashBackup(victim))
			traffic(1 + rng.Intn(10))
			failover()
			traffic(rng.Intn(20))
			repair()
			heal(when + " two re-joins")
		}
		traffic(rng.Intn(20))
	}
	return diverged, warm
}

// TestWarmRejoinPastTheRecord: a crashed backup re-joins by delta while the
// commits since its crash fit in the commit-stamp record, and by a full
// transfer once they outrun it.
func TestWarmRejoinPastTheRecord(t *testing.T) {
	for _, tc := range []struct {
		commits int
		full    bool
	}{{10, false}, {5000, true}} {
		t.Run(fmt.Sprint(tc.commits), func(t *testing.T) {
			g, err := replication.NewGroup(replication.Config{
				Mode:    replication.Active,
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
			mustNil(t, g.RepairAsync())
			if full := g.RepairStatus().BytesPlanned == 8*4096; full != tc.full {
				t.Fatalf("planned %d bytes, want a full transfer: %v", g.RepairStatus().BytesPlanned, tc.full)
			}
			mustNil(t, g.Repair())
			checkSparse(t, g, "re-join")
		})
	}
}
