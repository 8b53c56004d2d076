package repro_test

import (
	"errors"
	"testing"
	"time"

	"repro"
)

var apConfig = repro.AutopilotConfig{
	HeartbeatPeriod: 50 * time.Microsecond,
	AutoFailover:    true,
	AutoRepair:      true,
	Spares:          2,
}

// TestAutopilotUnattended is the acceptance run: with AutoFailover and
// AutoRepair on, a primary crash mid-workload is detected, a new primary is
// promoted, a spare is enrolled, and committed throughput recovers — with
// zero manual Failover/Repair/RepairAsync calls from this test — while
// quorum-acknowledged commits survive the crash.
func TestAutopilotUnattended(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version:   repro.V3InlineLog,
		Backup:    repro.ActiveBackup,
		DBSize:    testDB,
		Backups:   3,
		Safety:    repro.QuorumSafe,
		Autopilot: apConfig,
	})
	if err != nil {
		t.Fatal(err)
	}

	commit := func(slot int, payload string) error {
		tx, err := c.Begin()
		if err != nil {
			return err
		}
		must(t, tx.SetRange(slot*32, 32))
		buf := make([]byte, 32)
		copy(buf, payload)
		must(t, tx.Write(slot*32, buf))
		return tx.Commit()
	}

	// Quorum-acknowledged workload before the fault.
	acked := uint64(0)
	for i := 0; i < 200; i++ {
		if err := commit(i, "before"); err != nil {
			t.Fatal(err)
		}
		acked++
	}

	must(t, c.CrashPrimary())

	// Mid-workload recovery: the test only keeps committing. Quorum may
	// refuse a few admissions while the spare is still joining; idle time
	// (Settle) both heals and re-evaluates.
	recovered := 0
	for i := 0; i < 500000; i++ {
		err := commit(200+i%1000, "after")
		switch {
		case err == nil:
			recovered++
		case errors.Is(err, repro.ErrSafetyUnavailable):
			c.Settle()
		default:
			t.Fatalf("commit %d: %v", i, err)
		}
		if i%100 == 0 {
			c.Settle() // stream the healing transfer
		}
		if recovered > 100 && c.Generation() > 0 && !c.RepairProgress().Active && c.Backups() == 3 {
			break
		}
	}
	if recovered <= 100 {
		t.Fatalf("throughput never recovered: %d commits after the crash", recovered)
	}
	if c.Generation() != 1 {
		t.Fatalf("generation %d, want 1 unattended failover", c.Generation())
	}
	if c.Backups() != 3 {
		t.Fatalf("spare not enrolled: %d backups", c.Backups())
	}

	// Quorum zero-loss: every commit acknowledged before the crash is in
	// the recovered image.
	if got := c.Committed(); got < acked {
		t.Fatalf("recovered image lost acked commits: %d < %d", got, acked)
	}
	buf := make([]byte, 6)
	c.ReadRaw(199*32, buf)
	if string(buf) != "before" {
		t.Fatalf("acked commit content lost: %q", buf)
	}

	// The event record carries the full unattended timeline.
	evs := c.AutopilotEvents()
	if len(evs) == 0 {
		t.Fatal("no autopilot events")
	}
	ev := evs[0]
	if ev.Kind != "primary" {
		t.Fatalf("first event %+v, want primary fault", ev)
	}
	bound := 5 * apConfig.HeartbeatPeriod // Suspect after four, Dead one beat later
	if ev.MTTD() <= 0 || ev.MTTD() > bound {
		t.Fatalf("MTTD %v outside (0, %v]", ev.MTTD(), bound)
	}
	if ev.MTTR() <= 0 || ev.RestoredAt < ev.DetectedAt {
		t.Fatalf("restoration timeline broken: %+v", ev)
	}
}

// TestAutopilotControlTraffic: heartbeat bytes surface as
// Traffic.ControlBytes — and stay zero with the autopilot off. Under
// quorum the commits' acknowledgements stand for the rounds their periods
// hold, so only the idle periods ship beats.
func TestAutopilotControlTraffic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ap     repro.AutopilotConfig
		safety repro.Safety
		busy   bool // control bytes while commits flow
		idle   bool // control bytes once the cluster idles
	}{
		{"off", repro.AutopilotConfig{}, repro.OneSafe, false, false},
		{"1-safe", apConfig, repro.OneSafe, true, true},
		{"quorum", apConfig, repro.QuorumSafe, false, true},
	} {
		c, err := repro.New(repro.Config{
			Version:   repro.V3InlineLog,
			Backup:    repro.ActiveBackup,
			DBSize:    testDB,
			Backups:   2,
			Safety:    tc.safety,
			Autopilot: tc.ap,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Enough commit time for several heartbeat periods to elapse.
		for i := 0; i < 200; i++ {
			tx, err := c.Begin()
			must(t, err)
			must(t, tx.SetRange(i%64*64, 32))
			must(t, tx.Write(i%64*64, make([]byte, 32)))
			must(t, tx.Commit())
		}
		busy := c.NetTraffic()
		// Idle for a few heartbeat periods.
		for start := c.Elapsed(); c.Elapsed()-start < 4*apConfig.HeartbeatPeriod; {
			c.Settle()
		}
		idle := c.NetTraffic()
		if (busy.ControlBytes > 0) != tc.busy || (idle.ControlBytes > busy.ControlBytes) != tc.idle {
			t.Fatalf("%s: control bytes %d while busy, %d after Settle; want busy %v, idle %v",
				tc.name, busy.ControlBytes, idle.ControlBytes, tc.busy, tc.idle)
		}
		if idle.Total() != idle.ModifiedBytes+idle.UndoBytes+idle.MetaBytes+idle.SyncBytes+idle.ControlBytes {
			t.Fatal("Traffic.Total does not include ControlBytes")
		}
	}
}

// TestShardedAutopilot: Config.Autopilot applies per shard — each shard
// runs its own detector and heals its own faults while the other shards
// serve undisturbed.
func TestShardedAutopilot(t *testing.T) {
	sc, err := repro.NewSharded(repro.Config{
		Version:   repro.V3InlineLog,
		Backup:    repro.ActiveBackup,
		DBSize:    testDB,
		Backups:   2,
		Autopilot: apConfig,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	copy(payload, "shard")
	commitAt := func(off int) error {
		tx, err := sc.Begin()
		if err != nil {
			return err
		}
		if err := tx.SetRange(off, 32); err != nil {
			return err
		}
		if err := tx.Write(off, payload); err != nil {
			return err
		}
		return tx.Commit()
	}
	for i := 0; i < 50; i++ {
		must(t, commitAt(i*32))                // shard 0
		must(t, commitAt(sc.ShardSize()+i*32)) // shard 1
	}
	must(t, sc.Shard(0).CrashPrimary())

	// Shard 1 is untouched; shard 0 heals itself on the next touch.
	must(t, commitAt(sc.ShardSize()))
	for i := 0; i < 500; i++ {
		if err := commitAt(i % 100 * 32); err != nil {
			t.Fatalf("shard 0 commit: %v", err)
		}
		sc.Settle()
		if !sc.Shard(0).RepairProgress().Active && sc.Shard(0).Backups() == 2 {
			break
		}
	}
	if sc.Shard(0).Generation() != 1 {
		t.Fatalf("shard 0 generation %d, want 1", sc.Shard(0).Generation())
	}
	evs := sc.AutopilotEvents()
	if len(evs) == 0 || evs[0].Shard != 0 || evs[0].Kind != "primary" {
		t.Fatalf("sharded events = %+v", evs)
	}
	tr := sc.NetTraffic()
	if tr.ControlBytes == 0 {
		t.Fatal("sharded NetTraffic misses control bytes")
	}
}
