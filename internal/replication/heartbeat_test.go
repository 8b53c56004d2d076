package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// roundBytes is one exchanged heartbeat round of a K=3 group: the 24 B
// beat and one 24 B acknowledgement from each of the three backups.
const roundBytes = 4 * 24

// beatTally reads a group's heartbeat ledger: control bytes on the SAN and
// the rounds exchanged and implied, as its registry counts them.
type beatTally struct{ ctl, exchanged, implied int64 }

func tallyBeats(g *replication.Group, reg *obs.Registry) beatTally {
	s := reg.Snapshot()
	return beatTally{
		ctl:       g.NetBytes()[mem.CatControl],
		exchanged: int64(s.Counter(replication.MetricBeatsExchanged)),
		implied:   int64(s.Counter(replication.MetricBeatsImplied)),
	}
}

func (b beatTally) since(a beatTally) beatTally {
	return beatTally{b.ctl - a.ctl, b.exchanged - a.exchanged, b.implied - a.implied}
}

// TestHeartbeatRoundsShip: a round whose period carried a commit every
// heard backup acknowledged ships nothing; every other round ships its beat
// and three acks. Under continuous commits 2-safe and quorum ship no
// control bytes and 1-safe (no acknowledgements) ships every round; idle
// periods ship every round at every level, and so does a period with a
// joiner in flight, until its cut-over.
func TestHeartbeatRoundsShip(t *testing.T) {
	ap := apTiming
	ap.Spares = 1 // the joiner's machine
	hp := ap.HeartbeatPeriod
	for _, mode := range []replication.Mode{replication.Active, replication.Passive} {
		for _, safety := range []replication.Safety{replication.OneSafe, replication.TwoSafe, replication.QuorumSafe} {
			t.Run(mode.String()+"/"+safety.String(), func(t *testing.T) {
				reg := obs.NewRegistry()
				g, err := replication.NewGroup(replication.Config{
					Mode:      mode,
					Store:     vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
					Backups:   3,
					Safety:    safety,
					Autopilot: ap,
					Obs:       reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				slot := 0
				load := func(periods int) beatTally {
					t.Helper()
					commitSlot(t, g, slot%1000, 1)
					slot++
					start, at := tallyBeats(g, reg), g.Now()
					for g.Now()-at < sim.Time(periods)*sim.Time(hp) {
						commitSlot(t, g, slot%1000, 1)
						slot++
					}
					return tallyBeats(g, reg).since(start)
				}
				// shipsAll holds every round of d to its beat and acks.
				shipsAll := func(what string, d beatTally, minRounds int64) {
					t.Helper()
					if d.implied != 0 || d.exchanged < minRounds || d.ctl != roundBytes*d.exchanged {
						t.Fatalf("%s: %+v, want ≥ %d exchanged rounds of %d B and none implied", what, d, minRounds, roundBytes)
					}
				}
				loaded := func(what string, d beatTally) {
					t.Helper()
					if safety == replication.OneSafe {
						shipsAll(what, d, 20)
					} else if d.ctl != 0 || d.exchanged != 0 || d.implied < 20 {
						t.Fatalf("%s: %+v, want ≥ 20 implied rounds and no control bytes", what, d)
					}
				}

				loaded("continuous commits", load(20))

				// Idle: the round holding the last ack passes, then
				// twenty quiet periods each ship a round.
				g.Settle(hp)
				before := tallyBeats(g, reg)
				g.Settle(20 * hp)
				shipsAll("idle", tallyBeats(g, reg).since(before), 20)

				// A lone commit between idle stretches implies exactly the
				// round whose period holds its ack: at forty phases across a
				// period some commits straddle a round, whose period had no
				// ack and so ships.
				want := int64(1)
				if safety == replication.OneSafe {
					want = 0
				}
				for j := 0; j < 40; j++ {
					g.Settle(2*hp + sim.Dur(j)*hp/40)
					before := tallyBeats(g, reg)
					commitSlot(t, g, slot%1000, 1)
					slot++
					g.Settle(2 * hp)
					if d := tallyBeats(g, reg).since(before); d.implied != want || d.ctl != roundBytes*d.exchanged {
						t.Fatalf("lone commit at phase %d/40: %+v, want %d implied round", j, d, want)
					}
				}

				// A joiner in flight hears rounds but cannot acknowledge
				// commits: every round ships until its cut-over.
				for i := 0; i < 200; i++ {
					commitSlot(t, g, i*64, 2) // one page each, for the transfer
				}
				if err := g.PowerFailNode(2); err != nil {
					t.Fatal(err)
				}
				if err := g.RepairAsync(); err != nil {
					t.Fatal(err)
				}
				before, at := tallyBeats(g, reg), g.Now()
				for g.RepairStatus().Active {
					commitSlot(t, g, slot%1000, 3)
					slot++
				}
				if g.Now()-at < 2*sim.Time(hp) {
					t.Fatalf("join took %v, under two periods: too short to show its rounds", g.Now()-at)
				}
				shipsAll("joiner in flight", tallyBeats(g, reg).since(before), 1)

				loaded("after cut-over", load(20))
			})
		}
	}
}

// TestQuorumLoadBackupCrashDetected: with quorum commits implying every
// round, a crashed backup is still declared Dead within DeadAfter of the
// fault — the rounds hear only live members — and a spare enrols in its
// place while the commits flow.
func TestQuorumLoadBackupCrashDetected(t *testing.T) {
	ap := apTiming
	ap.AutoRepair = true
	ap.Spares = 1
	g := newAutopilotGroup(t, replication.Active, 3, replication.QuorumSafe, ap)
	for i := 0; i < 100; i++ {
		commitSlot(t, g, i, 1)
	}
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		commitSlot(t, g, i%1000, 2)
		if evs := g.AutopilotEvents(); len(evs) > 0 && evs[0].RestoredAt > 0 {
			break
		}
	}
	evs := g.AutopilotEvents()
	if len(evs) != 1 || evs[0].Kind != "backup" {
		t.Fatalf("events = %+v, want one backup fault", evs)
	}
	dead := detect.Config{HeartbeatPeriod: ap.HeartbeatPeriod}.DeadAfter()
	if mttd := sim.Dur(evs[0].DetectedAt - evs[0].FailedAt); mttd <= 0 || mttd > dead {
		t.Fatalf("MTTD %v outside (0, %v]", mttd, dead)
	}
	if evs[0].RestoredAt == 0 {
		t.Fatalf("spare never enrolled: %+v", evs[0])
	}
	if st := g.Autopilot(); st.Spares != 0 || g.Backups() != 3 {
		t.Fatalf("spares left %d, backups %d: want 0 and 3", st.Spares, g.Backups())
	}
}

// TestQuorumLoadPrimaryCrash: a primary crash amid quorum commits is
// detected within DeadAfter, and the promoted survivor holds every commit
// acknowledged before the fault.
func TestQuorumLoadPrimaryCrash(t *testing.T) {
	ap := apTiming
	ap.AutoFailover = true
	g := newAutopilotGroup(t, replication.Active, 3, replication.QuorumSafe, ap)
	const acked = 300
	for i := 0; i < acked; i++ {
		commitSlot(t, g, i, byte(i%250+1))
	}
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	commitSlot(t, g, acked, 1) // the takeover runs inside this Begin

	evs := g.AutopilotEvents()
	if len(evs) != 1 || evs[0].Kind != "primary" {
		t.Fatalf("events = %+v, want one primary fault", evs)
	}
	dead := detect.Config{HeartbeatPeriod: ap.HeartbeatPeriod}.DeadAfter()
	if mttd := sim.Dur(evs[0].DetectedAt - evs[0].FailedAt); mttd <= 0 || mttd > dead {
		t.Fatalf("MTTD %v outside (0, %v]", mttd, dead)
	}
	db := g.Primary().Space.ByName(vista.RegionDB)
	buf := make([]byte, 64)
	for i := 0; i < acked; i++ {
		db.ReadRaw(i*64, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i%250 + 1)}, 64)) {
			t.Fatalf("acknowledged commit %d lost across the takeover", i)
		}
	}
}

// TestDeposedQuorumPrimaryCannotCommit is TestDeposedPrimaryCannotCommit
// at quorum, cut while a sealed batch's acknowledgement is still in
// flight: that ack lands after the cut, so it must not stand for a round.
// The deposed primary's lease runs out within DeadAfter of the cut, and it
// refuses with ErrLeaseExpired before the new era's first commit.
func TestDeposedQuorumPrimaryCannotCommit(t *testing.T) {
	hp := apTiming.HeartbeatPeriod
	g := newAutopilotGroup(t, replication.Passive, 3, replication.QuorumSafe, apTiming)
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Defer()
	commitSlot(t, g, 50, 1)
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := g.PartitionPrimary(); err != nil {
		t.Fatal(err)
	}
	cut := g.Now()
	if g.AckedAt() <= cut {
		t.Fatalf("seal's ack %v not in flight at the cut %v", g.AckedAt(), cut)
	}
	dead := detect.Config{HeartbeatPeriod: hp}.DeadAfter()
	for i := 0; ; i++ {
		_, err := g.Begin()
		if errors.Is(err, replication.ErrLeaseExpired) {
			break
		}
		if !errors.Is(err, replication.ErrSafetyUnavailable) {
			t.Fatalf("deposed quorum primary: Begin = %v", err)
		}
		if i > 100 {
			t.Fatal("deposed primary's lease never ran out")
		}
		g.Settle(hp / 2)
	}
	if exp := g.Autopilot().LeaseExpiry; sim.Dur(exp-cut) > dead {
		t.Fatalf("lease renewed past the cut: expires %v after it, want ≤ %v", sim.Dur(exp-cut), dead)
	}

	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	commitSlot(t, g, 3, 5)
}
