package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// apTiming is the deterministic detector timing used across these tests.
var apTiming = replication.AutopilotConfig{
	HeartbeatPeriod: 20 * sim.Microsecond,
}

func newAutopilotGroup(t *testing.T, mode replication.Mode, backups int, safety replication.Safety, ap replication.AutopilotConfig) *replication.Group {
	t.Helper()
	g, err := replication.NewGroup(replication.Config{
		Mode:      mode,
		Store:     vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Backups:   backups,
		Safety:    safety,
		Autopilot: ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAutopilotOffByDefault(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.OneSafe)
	if st := g.Autopilot(); st.Enabled {
		t.Fatal("autopilot enabled without configuration")
	}
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Settle(g.QuiesceGrace())
	if ctl := g.NetBytes()[mem.CatControl]; ctl != 0 {
		t.Fatalf("control traffic with autopilot off: %d bytes", ctl)
	}
	if evs := g.AutopilotEvents(); evs != nil {
		t.Fatalf("events with autopilot off: %v", evs)
	}
}

func TestAutopilotValidation(t *testing.T) {
	if _, err := replication.NewGroup(replication.Config{
		Mode:      replication.Standalone,
		Store:     vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Autopilot: apTiming,
	}); !errors.Is(err, replication.ErrAutopilotNeedsPeers) {
		t.Fatalf("standalone autopilot: err = %v", err)
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:      replication.Passive,
		Store:     vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Autopilot: replication.AutopilotConfig{HeartbeatPeriod: -1},
	}); err == nil {
		t.Fatal("negative heartbeat period accepted")
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:  replication.Passive,
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Autopilot: replication.AutopilotConfig{
			HeartbeatPeriod: apTiming.HeartbeatPeriod, Spares: -1,
		},
	}); err == nil {
		t.Fatal("negative spare count accepted")
	}
}

// TestHeartbeatTrafficAccounted: with the autopilot on, heartbeat rounds
// occupy the SAN under mem.CatControl; the commit-path categories are
// unaffected.
func TestHeartbeatTrafficAccounted(t *testing.T) {
	g := newAutopilotGroup(t, replication.Active, 2, replication.OneSafe, apTiming)
	for i := 0; i < 200; i++ {
		commitSlot(t, g, i, 1)
	}
	g.Settle(g.QuiesceGrace())
	ctl := g.NetBytes()[mem.CatControl]
	if ctl == 0 {
		t.Fatal("no control traffic despite enabled autopilot")
	}
	// Every watched peer is alive.
	st := g.Autopilot()
	if !st.Enabled || len(st.Peers) != 3 {
		t.Fatalf("status = %+v, want 3 watched peers", st)
	}
	for p, s := range st.Peers {
		if s != detect.Alive {
			t.Fatalf("peer %s state %v, want alive", p, s)
		}
	}
}

// TestSettleTerminatesWithAutopilot: Settle must stay a bounded quiesce
// with heartbeats flowing — control traffic bypasses the write buffers, so
// it cannot starve the drain loop or stretch QuiesceGrace.
func TestSettleTerminatesWithAutopilot(t *testing.T) {
	plain := newGroup(t, replication.Active, 2, replication.OneSafe)
	ap := newAutopilotGroup(t, replication.Active, 2, replication.OneSafe,
		replication.AutopilotConfig{HeartbeatPeriod: 1 * sim.Microsecond})
	if plain.QuiesceGrace() != ap.QuiesceGrace() {
		t.Fatalf("autopilot changed QuiesceGrace: %v vs %v", ap.QuiesceGrace(), plain.QuiesceGrace())
	}
	for i := 0; i < 10; i++ {
		commitSlot(t, ap, i, 1)
	}
	before := ap.Elapsed()
	for i := 0; i < 3; i++ {
		ap.Settle(ap.QuiesceGrace())
	}
	// Three quiesce periods advance roughly three graces — not a runaway.
	adv := sim.Dur(ap.Elapsed() - before)
	if adv > 5*ap.QuiesceGrace() {
		t.Fatalf("Settle advanced %v for 3 graces of %v", adv, ap.QuiesceGrace())
	}
	commitSlot(t, ap, 11, 2) // still serving
}

// TestGroupCommitBatchUnaffectedByControl: heartbeat traffic must not join
// (or seal) group-commit batches. With CommitBatch=8, commits are released
// in batches of exactly 8 acknowledgement waits whether or not heartbeats
// interleave — observable as an identical committed count and an identical
// batch flush pattern on the backup's applied counter.
func TestGroupCommitBatchUnaffectedByControl(t *testing.T) {
	run := func(ap replication.AutopilotConfig) (applied []uint64) {
		g, err := replication.NewGroup(replication.Config{
			Mode:        replication.Active,
			Store:       vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
			Backups:     1,
			CommitBatch: 8,
			Autopilot:   ap,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			commitSlot(t, g, i, byte(i+1))
			applied = append(applied, g.AppliedTxns(0))
		}
		return applied
	}
	plain := run(replication.AutopilotConfig{})
	withAP := run(apTiming)
	for i := range plain {
		if plain[i] != withAP[i] {
			t.Fatalf("batch flush pattern diverged at commit %d: %d vs %d (control traffic leaked into batching)",
				i, plain[i], withAP[i])
		}
	}
}

// TestBackupDeathDetectionLatency: a dead backup is declared dead within
// five heartbeat periods of the fault, and self-healing re-enrolls
// a spare — its memory went with its power — without any manual Repair call.
func TestBackupDeathDetectionLatency(t *testing.T) {
	ap := apTiming
	ap.AutoRepair = true
	ap.Spares = 1
	g := newAutopilotGroup(t, replication.Active, 2, replication.OneSafe, ap)
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	// Keep the cluster busy: commits pump detection and the repair
	// copier, Settle streams the transfer through the quiet periods.
	for i := 0; i < 400; i++ {
		commitSlot(t, g, i%1000, 2)
		g.Settle(2 * sim.Millisecond)
		if evs := g.AutopilotEvents(); len(evs) > 0 && evs[0].RestoredAt > 0 {
			break
		}
	}
	evs := g.AutopilotEvents()
	if len(evs) != 1 {
		t.Fatalf("events = %+v, want exactly one backup fault", evs)
	}
	ev := evs[0]
	if ev.Kind != "backup" {
		t.Fatalf("event kind %q", ev.Kind)
	}
	mttd := sim.Dur(ev.DetectedAt - ev.FailedAt)
	bound := 5 * ap.HeartbeatPeriod // Suspect after four, Dead one beat later
	if mttd <= 0 || mttd > bound {
		t.Fatalf("MTTD %v outside (0, %v]", mttd, bound)
	}
	if ev.RestoredAt == 0 || ev.RestoredAt < ev.DetectedAt {
		t.Fatalf("restoration not recorded: %+v", ev)
	}
	if g.Backups() != 2 {
		t.Fatalf("group not healed: %d backups", g.Backups())
	}
	if st := g.Autopilot(); st.Spares != 0 {
		t.Fatalf("spare not consumed: %d left", st.Spares)
	}
}

// TestAutoFailoverUnattended: a primary crash mid-workload is detected and
// failed over by the next Begin — zero manual Failover/Repair calls — with
// detection latency bounded by five heartbeat periods, and the
// spare pool heals the group back to its configured degree.
func TestAutoFailoverUnattended(t *testing.T) {
	ap := apTiming
	ap.AutoFailover = true
	ap.AutoRepair = true
	ap.Spares = 1
	g := newAutopilotGroup(t, replication.Active, 3, replication.QuorumSafe, ap)

	for i := 0; i < 100; i++ {
		commitSlot(t, g, i, 1)
	}
	preGen := g.Generation()
	preEpoch := g.Epoch()
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}

	// The very next Begin performs detection + takeover internally; the
	// Settles stream the healing transfer to completion.
	for i := 0; i < 400; i++ {
		commitSlot(t, g, i%1000, 2)
		g.Settle(2 * sim.Millisecond)
		if !g.RepairStatus().Active && g.Backups() == 3 && g.Generation() > preGen {
			break
		}
	}
	if g.Generation() != preGen+1 {
		t.Fatalf("generation %d, want %d", g.Generation(), preGen+1)
	}
	if g.Epoch() <= preEpoch {
		t.Fatalf("epoch not bumped: %d -> %d", preEpoch, g.Epoch())
	}
	if g.Backups() != 3 {
		t.Fatalf("group not healed to degree: %d backups", g.Backups())
	}

	evs := g.AutopilotEvents()
	var primary *replication.FailureEvent
	for i := range evs {
		if evs[i].Kind == "primary" {
			primary = &evs[i]
		}
	}
	if primary == nil {
		t.Fatalf("no primary event in %+v", evs)
	}
	mttd := sim.Dur(primary.DetectedAt - primary.FailedAt)
	bound := 5 * ap.HeartbeatPeriod // Suspect after four, Dead one beat later
	if mttd <= 0 || mttd > bound {
		t.Fatalf("primary MTTD %v outside (0, %v]", mttd, bound)
	}
	if primary.FailedOverAt < primary.DetectedAt {
		t.Fatalf("failover precedes detection: %+v", primary)
	}
	if primary.RestoredAt == 0 {
		t.Fatalf("restoration not recorded: %+v", primary)
	}

	// Post-recovery commits replicate: settle and check a backup copy.
	commitSlot(t, g, 7, 9)
	g.Settle(g.QuiesceGrace())
	db := g.BackupNode(0).Space.ByName(vista.RegionDB)
	buf := make([]byte, 64)
	db.ReadRaw(7*64, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{9}, 64)) {
		t.Fatal("post-failover commit not replicated")
	}
}

// TestDeposedPrimaryCannotCommit: a primary partitioned from the cluster
// keeps serving only while its lease holds; once the lease runs out, Begin
// refuses with ErrLeaseExpired — before any instant at which the surviving
// majority could have promoted a replacement. No split-brain.
func TestDeposedPrimaryCannotCommit(t *testing.T) {
	g := newAutopilotGroup(t, replication.Passive, 2, replication.OneSafe, apTiming)
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	if err := g.PartitionPrimary(); err != nil {
		t.Fatal(err)
	}
	leaseExpiry := g.Autopilot().LeaseExpiry

	// The deposed primary may serve inside its lease; once simulated time
	// passes the expiry, admission must be refused.
	var refused bool
	for i := 0; i < 10000; i++ {
		tx, err := g.Begin()
		if errors.Is(err, replication.ErrLeaseExpired) {
			refused = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected Begin error: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !refused {
		// Idle time also runs the lease out.
		g.Settle(sim.Dur(leaseExpiry) + g.QuiesceGrace())
		if _, err := g.Begin(); !errors.Is(err, replication.ErrLeaseExpired) {
			t.Fatalf("deposed primary still admits commits: %v", err)
		}
	}

	// The operator fences the deposed node and promotes manually; the new
	// era serves.
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	commitSlot(t, g, 3, 5)
}

// TestDeposedPrimaryAutoPromotes: with AutoFailover on, the partition is
// resolved unattended — Begin deposes the dead-declared primary, promotes
// the most-caught-up survivor, and serves the caller's transaction from it.
func TestDeposedPrimaryAutoPromotes(t *testing.T) {
	ap := apTiming
	ap.AutoFailover = true
	g := newAutopilotGroup(t, replication.Passive, 2, replication.OneSafe, ap)
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	if err := g.PartitionPrimary(); err != nil {
		t.Fatal(err)
	}
	leaseExpiry := g.Autopilot().LeaseExpiry
	preGen := g.Generation()
	var promoted bool
	for i := 0; i < 10000 && !promoted; i++ {
		commitSlot(t, g, i%100, 2)
		promoted = g.Generation() > preGen
	}
	if !promoted {
		t.Fatal("partitioned primary never deposed")
	}
	evs := g.AutopilotEvents()
	if len(evs) == 0 || evs[len(evs)-1].Kind != "primary" {
		t.Fatalf("no primary event recorded: %+v", evs)
	}
	// No split-brain: the new primary was promoted no earlier than the
	// old one's dead declaration, which coincides with its lease expiry —
	// the deposed node had fenced itself before the new era's first
	// possible commit.
	ev := evs[len(evs)-1]
	if ev.DetectedAt < leaseExpiry {
		t.Fatalf("dead declaration %v precedes lease expiry %v (split-brain window)", ev.DetectedAt, leaseExpiry)
	}
	if ev.FailedOverAt < ev.DetectedAt {
		t.Fatalf("promotion %v precedes detection %v", ev.FailedOverAt, ev.DetectedAt)
	}
}

// TestEpochFencesStaleAcks: an InSync replica carrying an older membership
// epoch is excluded from acknowledgement — 2-safe refuses rather than count
// a vouch from a replica that missed a membership change.
func TestEpochFencesStaleAcks(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.TwoSafe)
	commitSlot(t, g, 0, 1)

	// Force a membership change: crash backup 1 and re-enroll a fresh
	// replacement, bumping the epoch.
	if err := g.CrashBackup(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Repair(); err != nil {
		t.Fatal(err)
	}
	commitSlot(t, g, 1, 2) // both members ack under the new epoch

	// White-box: regress one member onto the previous epoch.
	g.SetBackupEpochForTest(0, g.Epoch()-1)
	if _, err := g.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("stale-epoch member still vouches: %v", err)
	}
	g.SetBackupEpochForTest(0, g.Epoch())
	commitSlot(t, g, 2, 3)
}

// TestAutoRepairReplacesPartitionedBackup: a partitioned replica that
// stays silent past the dead timeout is expelled and replaced from the
// spare pool — under 2-safe the cluster would otherwise refuse every
// commit forever with no way to heal unattended.
func TestAutoRepairReplacesPartitionedBackup(t *testing.T) {
	ap := apTiming
	ap.AutoRepair = true
	ap.Spares = 1
	g := newAutopilotGroup(t, replication.Active, 2, replication.TwoSafe, ap)
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i, 1)
	}
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	// 2-safe refuses while the partitioned member is enrolled-but-silent.
	if _, err := g.Begin(); !errors.Is(err, replication.ErrSafetyUnavailable) {
		t.Fatalf("2-safe served with a partitioned member: %v", err)
	}
	// Idle time runs detection, expulsion, and the replacement transfer
	// (2-safe re-admits as soon as the silent member is expelled — the
	// joiner is not yet a member — and full redundancy follows at its
	// cut-over).
	healed, restored := false, false
	for i := 0; i < 400 && !restored; i++ {
		g.Settle(2 * sim.Millisecond)
		if tx, err := g.Begin(); err == nil {
			healed = true
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if evs := g.AutopilotEvents(); len(evs) > 0 && evs[0].RestoredAt > 0 {
			restored = true
		}
	}
	if !healed {
		t.Fatal("cluster never healed around the partitioned backup")
	}
	if st := g.Autopilot(); st.Spares != 0 {
		t.Fatalf("spare not consumed: %d left", st.Spares)
	}
	evs := g.AutopilotEvents()
	if len(evs) == 0 || evs[0].Kind != "backup" || evs[0].RestoredAt == 0 {
		t.Fatalf("partition event not recorded/restored: %+v", evs)
	}
}

// TestAutoRepairSparePoolBounds: the spare pool limits how many fresh
// nodes self-healing may enroll in place of nodes whose memory is gone;
// once dry the group serves degraded.
func TestAutoRepairSparePoolBounds(t *testing.T) {
	ap := apTiming
	ap.AutoRepair = true
	ap.Spares = 1
	g := newAutopilotGroup(t, replication.Active, 2, replication.OneSafe, ap)
	for i := 0; i < 20; i++ {
		commitSlot(t, g, i, 1)
	}

	heal := func() {
		for i := 0; i < 400; i++ {
			commitSlot(t, g, i%1000, 2)
			g.Settle(2 * sim.Millisecond)
			if st := g.Autopilot(); st.Spares == 0 && !g.RepairStatus().Active {
				break
			}
		}
	}
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	heal()
	if g.Backups() != 2 {
		t.Fatalf("first fault not healed: %d backups", g.Backups())
	}
	if st := g.Autopilot(); st.Spares != 0 {
		t.Fatalf("spares = %d after one replacement", st.Spares)
	}

	// Second fault: pool is dry, the group stays degraded but serving.
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		commitSlot(t, g, i%1000, 3)
		g.Settle(1 * sim.Millisecond)
	}
	if g.Backups() != 1 {
		t.Fatalf("degraded group has %d backups, want 1", g.Backups())
	}
}
