package tpc_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

// durable is a quorum deployment of two active backups, committing in
// batches of 8, whose disk tier lives in dir and snapshots every
// snapshotEvery commits.
func durable(t *testing.T, dir string, snapshotEvery int) *repro.Cluster {
	t.Helper()
	c, err := repro.New(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      4 << 20,
		Backups:     2,
		Safety:      repro.QuorumSafe,
		CommitBatch: 8,
		Durability: repro.DurabilityConfig{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dcStream returns c's Debit-Credit stream drawn from seed.
func dcStream(t *testing.T, c *repro.Cluster, seed uint64) *tpc.Runner {
	t.Helper()
	w, err := tpc.NewDebitCredit(c.DBSize())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tpc.Stream(c, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// drillColdRestart drills c's Debit-Credit stream from seed to the seeded
// kill point, the cold restart under mode and a serving window on the
// restarted deployment, then audits the image.
func drillColdRestart(t *testing.T, c *repro.Cluster, mode string, seed uint64) {
	t.Helper()
	stream := dcStream(t, c, seed)
	restart, kill, err := tpc.ColdRestart(stream, mode, seed)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := tpc.Drill(c, stream.One, 250*time.Microsecond, kill, restart, tpc.Step{Phase: "serving", Windows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if windows[0].Txns == 0 {
		t.Fatalf("the restarted deployment committed nothing: %+v", windows)
	}
	if _, err := stream.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestDrillColdRestartNeedsDisk(t *testing.T) {
	c, err := repro.New(repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, DBSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tpc.ColdRestart(dcStream(t, c, 1), tpc.TailMixed, 1); err == nil || !strings.Contains(err.Error(), "Durability") {
		t.Fatalf("cold restart accepted a deployment without the disk tier: %v", err)
	}
}

// TestDrillColdRestartRejectsUnknownMode: an unknown corrupt-tail mode is
// refused when the step is built, before any transaction runs. The
// deployment commits unbatched, so every WAL tail would be synced at the
// power loss and none would reach the per-tail corruption: only a check
// ahead of the drill can see the mode.
func TestDrillColdRestartRejectsUnknownMode(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version:    repro.V3InlineLog,
		Backup:     repro.ActiveBackup,
		DBSize:     4 << 20,
		Backups:    1,
		Safety:     repro.TwoSafe,
		Durability: repro.DurabilityConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := tpc.ColdRestart(dcStream(t, c, 1), "bogus", 1); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("cold restart with corrupt-tail mode %q = %v, want an unknown-mode error", "bogus", err)
	}
	if n := c.Stats().Begins; n != 0 {
		t.Fatalf("%d transactions began before the mode was rejected", n)
	}
}

// TestDrillColdRestart: under every corrupt-tail mode the restart loses no
// acked write (the step fails on one), the deployment serves on in place,
// and the image after its window is the replay oracle's.
func TestDrillColdRestart(t *testing.T) {
	for _, mode := range []string{tpc.TailIntact, tpc.TailTorn, tpc.TailBitFlip, tpc.TailZeroed, tpc.TailMixed} {
		t.Run(mode, func(t *testing.T) {
			c := durable(t, t.TempDir(), 50)
			drillColdRestart(t, c, mode, uint64(31+len(mode)))
			if rec := c.Durability().Recovery; !rec.Recovered {
				t.Fatalf("the restart found nothing on disk: %+v", rec)
			}
		})
	}
}

// TestDrillColdRestartSnapshotInterval: a tighter snapshot interval
// replays fewer records at recovery — the knob the durability cell turns.
func TestDrillColdRestartSnapshotInterval(t *testing.T) {
	replayed := func(every int) int {
		c := durable(t, t.TempDir(), every)
		drillColdRestart(t, c, tpc.TailIntact, 99)
		return c.Durability().Recovery.Replayed
	}
	tight, loose := replayed(20), replayed(100000)
	if tight >= loose {
		t.Fatalf("replayed %d records at snapshot-every=20 vs %d with snapshots off the table", tight, loose)
	}
}

// TestDrillColdRestartComposed is a composed schedule on one durable
// quorum deployment: crash and repair, the cold restart, crash and repair
// again. On every seed the image after the last window is the replay
// oracle's. -short drills two of the four seeds.
func TestDrillColdRestartComposed(t *testing.T) {
	crash := (*repro.Cluster).CrashPrimary
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := durable(t, t.TempDir(), 64)
			stream := dcStream(t, c, seed)
			restart, _, err := tpc.ColdRestart(stream, tpc.TailMixed, seed)
			if err != nil {
				t.Fatal(err)
			}
			windows, err := tpc.Drill(c, stream.One, 250*time.Microsecond, 50,
				tpc.Step{Phase: "healthy", Windows: 2},
				tpc.CrashRepair(crash),
				restart,
				tpc.CrashRepair(crash),
				tpc.Step{Phase: "final", Windows: 2})
			if err != nil {
				t.Fatal(err)
			}
			if w := windows[len(windows)-1]; w.Phase != "final" || w.Txns == 0 {
				t.Fatalf("last window %+v, want a final one that commits", w)
			}
			audited, err := stream.Audit()
			if err != nil {
				t.Fatalf("after %d transactions: %v", audited, err)
			}
			// The restart rebuilt the group in place: one failover since.
			if g := c.Generation(); g != 1 || !c.Durability().Recovery.Recovered {
				t.Fatalf("generation %d, recovery %+v: want the restarted group, failed over once", g, c.Durability().Recovery)
			}
		})
	}
}
