package tpc_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

// drillDC drills a Debit-Credit stream drawn from seed, laid out over c's
// whole database, through steps on c, and returns the windows and the
// stream's audit.
func drillDC(c *repro.Cluster, seed uint64, warmup int64, window time.Duration, steps ...tpc.Step) ([]tpc.Window, func() (int64, error), error) {
	w, err := tpc.NewDebitCredit(c.DBSize())
	if err != nil {
		return nil, nil, err
	}
	stream, err := tpc.Stream(c, w, seed)
	if err != nil {
		return nil, nil, err
	}
	windows, err := tpc.Drill(c, stream.One, window, warmup, steps...)
	return windows, stream.Audit, err
}

// crashBackup is a step action that crashes shard 0's only backup and
// repairs nothing.
func crashBackup(c *repro.Cluster) error { return c.CrashBackup(0) }

// twoSafe is a 2-safe deployment with one backup, which refuses service
// while that backup is down; with autopilot set it repairs itself.
func twoSafe(t *testing.T, autopilot bool) *repro.Cluster {
	t.Helper()
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
		Backups: 1,
		Safety:  repro.TwoSafe,
	}
	if autopilot {
		cfg.Autopilot = repro.AutopilotConfig{
			HeartbeatPeriod: 50 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          2,
		}
	}
	c, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDrillStepCap: a step whose predicate never holds fails the drill at
// its cap, after measuring exactly the capped windows.
func TestDrillStepCap(t *testing.T) {
	never := func(*repro.Cluster) bool { return false }
	windows, _, err := drillDC(twoSafe(t, false), 1, 0, time.Millisecond,
		tpc.Step{Phase: "healthy", Windows: 1}, tpc.Step{Phase: "stuck", Until: never, Windows: 2})
	if err == nil || !strings.Contains(err.Error(), "stuck did not complete within 2 windows") {
		t.Fatalf("drill = %v, want the cap's error", err)
	}
	if len(windows) != 3 {
		t.Fatalf("%d windows measured, want 3: %+v", len(windows), windows)
	}
}

// TestDrillStrictWindowRefused: a strict window that meets
// ErrSafetyUnavailable fails the drill.
func TestDrillStrictWindowRefused(t *testing.T) {
	_, _, err := drillDC(twoSafe(t, true), 1, 0, time.Millisecond,
		tpc.Step{Phase: "strict", Act: crashBackup, Windows: 1})
	if !errors.Is(err, repro.ErrSafetyUnavailable) {
		t.Fatalf("drill = %v, want ErrSafetyUnavailable", err)
	}
}

// TestDrillDegradedWindowRecovers: a degraded window that meets
// ErrSafetyUnavailable idles the deployment, and the autopilot's repair
// brings service back inside the window. Without an autopilot nothing
// heals: a short window runs out idle and empty, and a long one gives up.
func TestDrillDegradedWindowRecovers(t *testing.T) {
	degraded := tpc.Step{Phase: "degraded", Act: crashBackup, Until: func(*repro.Cluster) bool { return true }, Windows: 1}
	healthy := tpc.Step{Phase: "healthy", Windows: 1}
	c := twoSafe(t, true)
	windows, _, err := drillDC(c, 1, 0, time.Millisecond, healthy, degraded)
	if err != nil {
		t.Fatal(err)
	}
	if w := windows[1]; w.Txns == 0 || w.TPS >= windows[0].TPS {
		t.Fatalf("degraded window %+v against healthy %+v: want a dip that still commits", w, windows[0])
	}
	if events := c.AutopilotEvents(); len(events) != 1 || events[0].MTTR() <= 0 {
		t.Fatalf("autopilot events %+v, want one restored backup", events)
	}

	windows, _, err = drillDC(twoSafe(t, false), 1, 0, time.Millisecond, healthy, degraded)
	if err != nil || windows[1].Txns != 0 {
		t.Fatalf("unhealed degraded window = %+v, %v; want an empty window", windows, err)
	}
	_, _, err = drillDC(twoSafe(t, false), 1, 0, time.Second, degraded)
	if err == nil || !strings.Contains(err.Error(), "degraded window: deployment never regained its safety level") {
		t.Fatalf("unhealed long window = %v, want the give-up error", err)
	}
}

// TestDrillComposedFaults is a composed schedule at quorum: crash and
// repair, growth to four shards with a shard-0 primary crash landing
// before one of its windows, crash and repair again. On every seed the
// final image is the replay oracle's, and a rerun repeats the timeline.
// -short drills two of the four seeds.
func TestDrillComposedFaults(t *testing.T) {
	crash := (*repro.Cluster).CrashPrimary
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		at := int(seed % 3)
		t.Run(fmt.Sprintf("seed%d-at%d", seed, at), func(t *testing.T) {
			drill := func() ([]tpc.Window, int64) {
				c := newGrowable(t)
				windows, audit, err := drillDC(c, seed, 50, 10*time.Millisecond,
					tpc.Step{Phase: "healthy", Windows: 2},
					tpc.CrashRepair(crash),
					tpc.Grow(4).Inject(at, tpc.Failover(crash)),
					tpc.CrashRepair(crash),
					tpc.Step{Phase: "final", Windows: 2})
				if err != nil {
					t.Fatal(err)
				}
				audited, err := audit()
				if err != nil {
					t.Fatal(err)
				}
				if c.Shards() != 4 || c.Generation() != 3 {
					t.Fatalf("%d shards after %d failovers, want 4 after 3", c.Shards(), c.Generation())
				}
				return windows, audited
			}
			a, auditedA := drill()
			b, auditedB := drill()
			if auditedA != auditedB || !slices.Equal(a, b) {
				t.Fatalf("rerun differs: %d vs %d audited\n%+v\n%+v", auditedA, auditedB, a, b)
			}
		})
	}
}

// TestDrillAuditSeesAStaleByte: after a growth step the audit passes, and
// one byte written outside the stream into a partition that moved to a
// new shard fails it at that byte's global offset.
func TestDrillAuditSeesAStaleByte(t *testing.T) {
	c := newGrowable(t)
	_, audit, err := drillDC(c, 5, 0, 10*time.Millisecond, tpc.Grow(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	off := -1
	for p := 0; off < 0 && p < c.DBSize()/c.PartSize(); p++ {
		if c.ShardFor(p*c.PartSize()) != 0 {
			off = p*c.PartSize() + c.PartSize()/2
		}
	}
	if off < 0 {
		t.Fatal("no partition left shard 0")
	}
	var b [1]byte
	c.ReadRaw(off, b[:])
	b[0] ^= 0xFF
	if err := c.Load(off, b[:]); err != nil {
		t.Fatal(err)
	}
	_, err = audit()
	if want := fmt.Sprintf("at offset %d ", off); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit after a stale byte at %d = %v", off, err)
	}
}
