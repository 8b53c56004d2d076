package replication_test

import (
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

// The BackupState machine, exhaustively: every (state, event) pair is
// driven through the public API and the resulting state asserted against
// the lifecycle matrix documented on BackupState. Illegal transitions are
// the pairs whose row says "stays put" — a crashed replica cannot be
// paused back to life, a pause cannot skip the gate on resume, and so on;
// the new autopilot paths (detection-driven crash and repair) ride on
// exactly these transitions, so the matrix pins them down.

type lifecycleEvent string

const (
	evPause  lifecycleEvent = "pause"
	evResume lifecycleEvent = "resume"
	evCrash  lifecycleEvent = "crash"
	evRepair lifecycleEvent = "repair"
)

// lifecycleRig builds a passive K=2 group with backup 1 driven into the
// given state. Backup 0 stays in-sync throughout, so the group always has
// a live replica and RepairAsync's behavior is attributable to backup 1.
func lifecycleRig(t *testing.T, state replication.BackupState) *replication.Group {
	t.Helper()
	g := newGroup(t, replication.Passive, 2, replication.OneSafe)
	for i := 0; i < 8; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Settle(g.QuiesceGrace())
	switch state {
	case replication.StateInSync:
	case replication.StatePaused:
		mustNil(t, g.PauseBackup(1))
	case replication.StateGated:
		mustNil(t, g.PauseBackup(1))
		// Dirty pages while away, so re-enrollment needs a real transfer
		// (a clean, commit-free gap would re-enroll with no transfer).
		for i := 0; i < 300; i++ {
			commitSlot(t, g, i%64, 2)
		}
		g.Settle(g.QuiesceGrace())
		mustNil(t, g.ResumeBackup(1))
	case replication.StateSyncing:
		mustNil(t, g.PauseBackup(1))
		for i := 0; i < 300; i++ {
			commitSlot(t, g, i%64, 2)
		}
		g.Settle(g.QuiesceGrace())
		mustNil(t, g.ResumeBackup(1))
		mustNil(t, g.RepairAsync())
	case replication.StateCrashed:
		mustNil(t, g.CrashBackup(1))
	default:
		t.Fatalf("state %v unreachable in the passive rig", state)
	}
	if got := g.BackupState(1); got != state {
		t.Fatalf("rig built %v, want %v", got, state)
	}
	return g
}

func applyLifecycleEvent(t *testing.T, g *replication.Group, ev lifecycleEvent) {
	t.Helper()
	switch ev {
	case evPause:
		mustNil(t, g.PauseBackup(1))
	case evResume:
		mustNil(t, g.ResumeBackup(1))
	case evCrash:
		mustNil(t, g.CrashBackup(1))
	case evRepair:
		if err := g.RepairAsync(); err != nil && !errors.Is(err, replication.ErrNotRepairable) {
			t.Fatal(err)
		}
	}
}

func TestBackupStateMachine(t *testing.T) {
	S := replication.StateInSync
	P := replication.StatePaused
	G := replication.StateGated
	Y := replication.StateSyncing
	C := replication.StateCrashed
	matrix := []struct {
		from replication.BackupState
		next map[lifecycleEvent]replication.BackupState
	}{
		// A live stream member pauses, crashes, and has nothing to
		// repair; resume is a no-op outside Paused.
		{S, map[lifecycleEvent]replication.BackupState{evPause: P, evResume: S, evCrash: C, evRepair: S}},
		// A partitioned replica re-pauses idempotently, resumes only to
		// Gated (never straight back to the stream — its gap would tear
		// the copy), and is not repairable until it resumes.
		{P, map[lifecycleEvent]replication.BackupState{evPause: P, evResume: G, evCrash: C, evRepair: P}},
		// A gated replica re-enrolls through a join; pausing it again is
		// legal, "resuming" it again changes nothing.
		{G, map[lifecycleEvent]replication.BackupState{evPause: P, evResume: G, evCrash: C, evRepair: Y}},
		// A mid-join replica aborts its transfer on pause or crash;
		// another RepairAsync leaves the in-flight join running.
		{Y, map[lifecycleEvent]replication.BackupState{evPause: P, evResume: Y, evCrash: C, evRepair: Y}},
		// Dead machines stay dead under every event except repair, which
		// re-joins the node from its own memory: with nothing committed
		// since its crash, at once.
		{C, map[lifecycleEvent]replication.BackupState{evPause: C, evResume: C, evCrash: C, evRepair: S}},
	}
	for _, row := range matrix {
		for _, ev := range []lifecycleEvent{evPause, evResume, evCrash, evRepair} {
			t.Run(row.from.String()+"/"+string(ev), func(t *testing.T) {
				g := lifecycleRig(t, row.from)
				applyLifecycleEvent(t, g, ev)
				if got, want := g.BackupState(1), row.next[ev]; got != want {
					t.Fatalf("%v + %s = %v, want %v", row.from, ev, got, want)
				}
				if g.Backups() != 2 {
					t.Fatalf("membership leaked: %d backups", g.Backups())
				}
				// The group still serves whatever happened to backup 1.
				commitSlot(t, g, 70, 3)
			})
		}
	}
}

// TestBackupStateCatchingUp drives the active-only CatchingUp state: the
// join's chunk copy completes while a large unflushed group-commit batch
// keeps the redo lag above the cut-over threshold, then the flush drains
// the lag and the replica cuts over to InSync; pause and crash mid-catch-up
// abort the join.
func TestBackupStateCatchingUp(t *testing.T) {
	rig := func(t *testing.T) *replication.Group {
		t.Helper()
		g, err := replication.NewGroup(replication.Config{
			Mode:        replication.Active,
			Store:       vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
			Backups:     2,
			CommitBatch: 256,
			RepairChunk: testDB, // one pump ships the whole plan
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			commitSlot(t, g, i, 1)
		}
		mustNil(t, g.Flush())
		g.Settle(g.QuiesceGrace())
		mustNil(t, g.PauseBackup(1))
		for i := 0; i < 200; i++ {
			commitSlot(t, g, i%64, 2)
		}
		mustNil(t, g.Flush())
		g.Settle(g.QuiesceGrace())
		mustNil(t, g.ResumeBackup(1))
		mustNil(t, g.RepairAsync())
		// Build an open batch: the commits grant the copier enough credit
		// to finish its (single-chunk) plan mid-batch, and the unflushed
		// batch keeps the replica catching up — the regression this rig
		// pins is a joiner cutting over inside an open batch, which would
		// let the flush publish unreserved bytes to its ring.
		for i := 0; i < 120; i++ {
			commitSlot(t, g, i%64, 3)
		}
		if got := g.BackupState(1); got != replication.StateCatchingUp {
			t.Fatalf("rig reached %v, want catching-up", got)
		}
		return g
	}

	t.Run("flush-cuts-over", func(t *testing.T) {
		g := rig(t)
		mustNil(t, g.Flush())
		g.Settle(g.QuiesceGrace())
		if got := g.BackupState(1); got != replication.StateInSync {
			t.Fatalf("after flush: %v, want in-sync", got)
		}
	})
	t.Run("pause-aborts", func(t *testing.T) {
		g := rig(t)
		mustNil(t, g.PauseBackup(1))
		if got := g.BackupState(1); got != replication.StatePaused {
			t.Fatalf("after pause: %v, want paused", got)
		}
	})
	t.Run("crash-aborts", func(t *testing.T) {
		g := rig(t)
		mustNil(t, g.CrashBackup(1))
		if got := g.BackupState(1); got != replication.StateCrashed {
			t.Fatalf("after crash: %v, want crashed", got)
		}
	})
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
