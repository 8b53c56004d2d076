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

// sealScope runs n commits in one deferral scope and returns the
// acknowledgement instant its seal left in flight.
func sealScope(t *testing.T, s *dcStream, n int) sim.Time {
	t.Helper()
	s.g.Defer()
	s.commit(n)
	if err := s.g.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	return s.g.AckedAt()
}

// TestSealOverlapsTheAck: a scope's seal publishes and fences its batch but
// does not idle the primary through the acknowledgement, so the next scope's
// first commit starts before it arrives. Each seal's instant is later than
// the one before, Elapsed reaches the latest, and Flush, Settle and a
// scope-free Commit idle the serving clock to it.
func TestSealOverlapsTheAck(t *testing.T) {
	g := newGCGroup(t, replication.QuorumSafe, 0)
	s := newDCStream(t, g, 5)
	g.ResetMeasurement()
	origin := g.Now()

	var last sim.Time
	for i := 0; i < 4; i++ {
		start := g.Now()
		if i > 0 && start >= last {
			t.Fatalf("scope %d opened at %v, not before the previous acknowledgement at %v", i, start, last)
		}
		ack := sealScope(t, s, 3)
		if ack <= last {
			t.Fatalf("scope %d acknowledged at %v, not after the previous %v", i, ack, last)
		}
		if now := g.Now(); now >= ack {
			t.Fatalf("scope %d: the primary idled to %v, through its acknowledgement at %v", i, now, ack)
		}
		if e := g.Elapsed(); e != ack-origin {
			t.Fatalf("scope %d: Elapsed %v, want %v (through the acknowledgement)", i, e, ack-origin)
		}
		last = ack
	}

	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if now := g.Now(); now != last {
		t.Fatalf("Flush with nothing pending left the clock at %v, not at the acknowledgement %v", now, last)
	}
	ack := sealScope(t, s, 3)
	g.Settle(0)
	if now := g.Now(); now != ack {
		t.Fatalf("Settle(0) left the clock at %v, not at the acknowledgement %v", now, ack)
	}
	ack = sealScope(t, s, 3)
	s.commit(1)
	if now, own := g.Now(), g.AckedAt(); own <= ack || now != own {
		t.Fatalf("a scope-free commit returned at %v, acknowledged at %v after the scope's %v: want it to wait for its own", now, own, ack)
	}
	if e := g.Elapsed(); e != g.Now()-origin {
		t.Fatalf("Elapsed %v after the waits, want %v", e, g.Now()-origin)
	}
}

// TestSealAckStaysInItsEra: an acknowledgement still in flight belongs to
// the measured interval and the node that sealed it. ResetMeasurement and
// a manual Failover settle it there, so the next interval opens at zero on
// its own clock; an unattended takeover carries the interval on, and the
// promoted node's own seals extend it.
func TestSealAckStaysInItsEra(t *testing.T) {
	const seed = 17

	t.Run("reset", func(t *testing.T) {
		g := newGCGroup(t, replication.QuorumSafe, 0)
		s := newDCStream(t, g, seed)
		s.commit(40)
		ack := sealScope(t, s, 3)
		g.ResetMeasurement()
		if e := g.Elapsed(); e != 0 {
			t.Fatalf("Elapsed %v right after ResetMeasurement, want 0", e)
		}
		if now := g.Now(); now != ack {
			t.Fatalf("the reset left the clock at %v, not at the acknowledgement %v it settled", now, ack)
		}
	})

	t.Run("failover", func(t *testing.T) {
		g := newGCGroup(t, replication.QuorumSafe, 0)
		s := newDCStream(t, g, seed)
		s.commit(40)
		ack := sealScope(t, s, 3)
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Failover(); err != nil {
			t.Fatal(err)
		}
		if now := g.Now(); now >= ack {
			t.Fatalf("premise: the promoted clock %v already passed the old era's acknowledgement %v", now, ack)
		}
		if e := g.Elapsed(); e != 0 {
			t.Fatalf("Elapsed %v right after the failover, want 0: the old era's acknowledgement paired with the promoted clock", e)
		}
		origin := g.Now()
		s.commit(2)
		if e := g.Elapsed(); e != g.Now()-origin {
			t.Fatalf("Elapsed %v on the promoted node, want %v", e, g.Now()-origin)
		}
	})

	t.Run("takeover", func(t *testing.T) {
		g, err := replication.NewGroup(replication.Config{
			Mode:    replication.Active,
			Store:   vista.Config{Version: vista.V3InlineLog, DBSize: gcDB},
			Backups: 3,
			Safety:  replication.QuorumSafe,
			Autopilot: replication.AutopilotConfig{
				HeartbeatPeriod: 200 * sim.Microsecond,
				AutoFailover:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := newDCStream(t, g, seed)
		g.ResetMeasurement()
		origin := g.Now()
		s.commit(40)
		sealScope(t, s, 3)
		before := g.Elapsed()
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		s.commit(1) // Begin performs the unattended takeover
		if g.Generation() != 1 {
			t.Fatalf("generation %d after the crash, want 1", g.Generation())
		}
		if e := g.Elapsed(); e < before || e != g.Now()-origin {
			t.Fatalf("Elapsed %v across the takeover (%v before it), want %v on the promoted clock", e, before, g.Now()-origin)
		}
		ack := sealScope(t, s, 3)
		if e := g.Elapsed(); e != ack-origin {
			t.Fatalf("Elapsed %v after the promoted node's seal, want %v", e, ack-origin)
		}
	})
}

// TestSealAckCrashKeepsSealed: a primary that dies while the last seal's
// acknowledgement is still in flight loses none of the sealed scopes — their
// records were fenced to the backups before Seal returned — while the open
// scope's commits die with it and its Seal reports ErrCrashed.
func TestSealAckCrashKeepsSealed(t *testing.T) {
	const seed, scopes, per = 29, 5, 4
	const sealed = scopes * per
	g := newGCGroup(t, replication.QuorumSafe, 0)
	s := newDCStream(t, g, seed)
	for i := 0; i < scopes; i++ {
		sealScope(t, s, per)
	}
	g.Defer()
	s.commit(1)
	if now, ack := g.Now(), g.AckedAt(); now >= ack {
		t.Fatalf("the clock %v passed the last acknowledgement %v before the crash", now, ack)
	}
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	holding := 0
	for i := 0; i < g.Backups(); i++ {
		if g.AppliedTxns(i) == sealed {
			holding++
		}
	}
	if holding < replication.QuorumAcks(3) {
		t.Fatalf("%d backups hold the %d sealed commits, fewer than a quorum", holding, sealed)
	}
	st, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed(); got != sealed {
		t.Fatalf("survivor holds %d commits, want the %d sealed", got, sealed)
	}
	ref, err := tpc.Replay(s.w, tpc.Options{Seed: seed}, sealed)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, gcDB)
	st.ReadRaw(0, got)
	if !bytes.Equal(got, ref) {
		t.Fatalf("survivor state does not match the %d sealed commits", sealed)
	}
	if err := g.Seal(); !errors.Is(err, replication.ErrCrashed) {
		t.Fatalf("seal of the open scope = %v, want ErrCrashed", err)
	}
}
