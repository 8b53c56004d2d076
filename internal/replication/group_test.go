package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

func newGroup(t *testing.T, mode replication.Mode, backups int, safety replication.Safety) *replication.Group {
	t.Helper()
	g, err := replication.NewGroup(replication.Config{
		Mode:    mode,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Backups: backups,
		Safety:  safety,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func commitSlot(t *testing.T, g *replication.Group, slot int, fill byte) {
	t.Helper()
	tx, err := g.Begin()
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

func TestGroupValidation(t *testing.T) {
	if _, err := replication.NewGroup(replication.Config{
		Mode:    replication.Passive,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Backups: -1,
	}); err == nil {
		t.Fatal("negative backup count accepted")
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:   replication.Active,
		Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Safety: replication.Safety(9),
	}); err == nil {
		t.Fatal("bogus safety level accepted")
	}
	g := newGroup(t, replication.Standalone, 0, replication.OneSafe)
	if g.Backups() != 0 {
		t.Fatalf("standalone group has %d backups", g.Backups())
	}
	g = newGroup(t, replication.Active, 3, replication.QuorumSafe)
	if g.Backups() != 3 {
		t.Fatalf("K=3 group reports %d backups", g.Backups())
	}
	if g.Safety() != replication.QuorumSafe {
		t.Fatalf("safety %v", g.Safety())
	}
}

func TestQuorumAcksMath(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}
	for k, want := range cases {
		if got := replication.QuorumAcks(k); got != want {
			t.Errorf("QuorumAcks(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestGroupFanoutReplicates: with K=3 passive backups, a settled commit is
// on every backup's database copy.
func TestGroupFanoutReplicates(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Passive, replication.Active} {
		g := newGroup(t, mode, 3, replication.OneSafe)
		for i := 0; i < 20; i++ {
			commitSlot(t, g, i, byte(i+1))
		}
		g.Settle(10 * sim.Microsecond)
		for i := 0; i < 3; i++ {
			if mode == replication.Active {
				if got := g.AppliedTxns(i); got != 20 {
					t.Fatalf("%s: backup %d applied %d of 20", mode, i, got)
				}
			}
			db := g.BackupNode(i).Space.ByName(vista.RegionDB)
			buf := make([]byte, 64)
			db.ReadRaw(5*64, buf)
			if !bytes.Equal(buf, bytes.Repeat([]byte{6}, 64)) {
				t.Fatalf("%s: backup %d missing slot 5", mode, i)
			}
		}
	}
}

// TestFailoverPromotesMostCaughtUp: with three backups at unequal apply
// progress (two paused at different points), promotion picks the replica
// with the highest applied commit sequence, and the surviving backups are
// re-synced behind the new primary.
func TestFailoverPromotesMostCaughtUp(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.OneSafe)

	for i := 0; i < 30; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Settle(10 * sim.Microsecond)
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 60; i++ {
		commitSlot(t, g, i, 2)
	}
	g.Settle(10 * sim.Microsecond)
	if err := g.PauseBackup(2); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 100; i++ {
		commitSlot(t, g, i, 3)
	}
	g.Settle(10 * sim.Microsecond)

	if a, b, c := g.AppliedTxns(0), g.AppliedTxns(1), g.AppliedTxns(2); a != 100 || b != 30 || c != 60 {
		t.Fatalf("applied progress %d/%d/%d, want 100/30/60", a, b, c)
	}

	promoted := g.BackupNode(0)
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed(); got != 100 {
		t.Fatalf("promoted store has %d commits, want 100 (most caught-up)", got)
	}
	if g.Primary() != promoted {
		t.Fatalf("promotion picked %q, want the most-caught-up backup %q",
			g.Primary().Name, promoted.Name)
	}

	// The survivors (both formerly paused) re-synced behind the new
	// primary: their database copies now equal the promoted state. The
	// old primary stays a member, crashed, until a repair re-joins it.
	if g.Backups() != 3 || g.BackupState(2) != replication.StateCrashed {
		t.Fatalf("%d members wired, want 2 survivors and the crashed old primary", g.Backups())
	}
	want := make([]byte, testDB)
	st.ReadRaw(0, want)
	for i := 0; i < 2; i++ {
		got := make([]byte, testDB)
		g.BackupNode(i).Space.ByName(vista.RegionDB).ReadRaw(0, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("survivor %d not re-synced behind the new primary", i)
		}
	}

	// Replication continues: another commit, crash, failover — sequential
	// failures are tolerated while replicas remain.
	commitSlot(t, g, 100, 4)
	g.Settle(10 * sim.Microsecond)
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	st2, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Committed(); got != 101 {
		t.Fatalf("second failover lost commits: %d of 101", got)
	}
	if g.Generation() != 2 {
		t.Fatalf("generation %d after two failovers", g.Generation())
	}
}

// TestQuorumSurvivesPrimaryPlusBackupCrash is the headline guarantee:
// QuorumSafe with three backups loses nothing when the primary and one
// backup die together, with no settling grace.
func TestQuorumSurvivesPrimaryPlusBackupCrash(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		g := newGroup(t, replication.Active, 3, replication.QuorumSafe)
		const commits = 80
		for i := 0; i < commits; i++ {
			commitSlot(t, g, i, byte(i%250+1))
		}
		// Crash immediately: every Commit above was quorum-acked.
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := g.CrashBackup(victim); err != nil {
			t.Fatal(err)
		}
		st, err := g.Failover()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Committed(); got != commits {
			t.Fatalf("victim %d: %d of %d acked commits survived", victim, got, commits)
		}
		buf := make([]byte, 64)
		st.ReadRaw((commits-1)*64, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte((commits-1)%250 + 1)}, 64)) {
			t.Fatalf("victim %d: last acked commit's data lost", victim)
		}
	}
}

// TestSafetyCommitLatencyOrdering: 1-safe commits are the fastest, quorum
// waits for the median backup, 2-safe for the slowest.
func TestSafetyCommitLatencyOrdering(t *testing.T) {
	run := func(s replication.Safety) float64 {
		g := newGroup(t, replication.Active, 3, s)
		w, err := tpc.NewDebitCredit(testDB)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tpc.Run(g, w, tpc.Options{Txns: 400, Warmup: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.TPS
	}
	one, quorum, two := run(replication.OneSafe), run(replication.QuorumSafe), run(replication.TwoSafe)
	if !(one > quorum && quorum > two) {
		t.Fatalf("TPS ordering violated: 1-safe %.0f, quorum %.0f, 2-safe %.0f", one, quorum, two)
	}
}

// TestSafetyUnavailable: stronger safety levels refuse transactions when
// too few backups are reachable, instead of acking what they cannot hold.
func TestSafetyUnavailable(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.QuorumSafe)
	if err := g.PauseBackup(0); err != nil {
		t.Fatal(err)
	}
	tx, err := g.Begin()
	if err != nil {
		t.Fatalf("quorum with 2 of 3 reachable must serve: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("quorum with 1 of 3 reachable: %v", err)
	}
	// A resumed backup is still stale (it missed part of the stream), so
	// it must not count toward the quorum until a re-sync.
	if err := g.ResumeBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("quorum counted a stale resumed backup: %v", err)
	}

	// Crashed backups shrink the group below the configured quorum for
	// good: the guarantee is over the configured degree, not survivors.
	g3 := newGroup(t, replication.Active, 3, replication.QuorumSafe)
	if err := g3.CrashBackup(0); err != nil {
		t.Fatal(err)
	}
	if err := g3.CrashBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("quorum served with 2 of 3 backups crashed: %v", err)
	}

	g2 := newGroup(t, replication.Active, 2, replication.TwoSafe)
	if err := g2.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("2-safe with a partitioned backup: %v", err)
	}
}

// TestRepairRestoresDegree: after a failover that lost the old primary's
// memory, Repair enrolls fresh nodes back up to the configured replication
// degree and replication is live to all of them.
func TestRepairRestoresDegree(t *testing.T) {
	g := newGroup(t, replication.Passive, 2, replication.OneSafe)
	for i := 0; i < 25; i++ {
		commitSlot(t, g, i, 9)
	}
	g.Settle(10 * sim.Microsecond)
	if err := g.PowerFailNode(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	if g.Backups() != 1 {
		t.Fatalf("%d survivors, want 1", g.Backups())
	}
	if err := g.Repair(); err != nil {
		t.Fatal(err)
	}
	if g.Backups() != 2 {
		t.Fatalf("repair left %d backups, want the configured degree 2", g.Backups())
	}

	commitSlot(t, g, 30, 7)
	g.Settle(10 * sim.Microsecond)
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		g.BackupNode(i).Space.ByName(vista.RegionDB).ReadRaw(30*64, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{7}, 64)) {
			t.Fatalf("backup %d missed the post-repair commit", i)
		}
	}
	if got := g.Store().Committed(); got != 26 {
		t.Fatalf("%d commits on the serving store, want 26", got)
	}
}

// TestPausedBackupNotPromotedOverFresher: a stale (paused) backup is
// eligible for promotion but loses to any fresher survivor; crashed
// backups are never promoted.
func TestPausedBackupNotPromotedOverFresher(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.OneSafe)
	for i := 0; i < 10; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Settle(10 * sim.Microsecond)
	if err := g.PauseBackup(0); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 40; i++ {
		commitSlot(t, g, i, 2)
	}
	g.Settle(10 * sim.Microsecond)
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed(); got != 40 {
		t.Fatalf("promotion chose the stale replica: %d commits, want 40", got)
	}
}

// TestFailoverNoSurvivors: crashing every backup leaves nothing to promote.
func TestFailoverNoSurvivors(t *testing.T) {
	g := newGroup(t, replication.Passive, 2, replication.OneSafe)
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := g.CrashBackup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.CrashBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Failover(); !errors.Is(err, replication.ErrNoBackup) {
		t.Fatalf("failover with no survivors: %v", err)
	}
}
