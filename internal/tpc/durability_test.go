package tpc_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/tpc"
)

// durOpen returns an open callback over one durability directory: each
// call builds a fresh deployment over the same files, which is exactly
// what a cold restart is.
func durOpen(dir string, snapshotEvery int) func() (*repro.Cluster, error) {
	return func() (*repro.Cluster, error) {
		return repro.New(repro.Config{
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
	}
}

func TestRunDurabilityNeedsDisk(t *testing.T) {
	open := func() (*repro.Cluster, error) {
		return repro.New(repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, DBSize: 4 << 20})
	}
	w, err := tpc.NewDebitCredit(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpc.RunDurability(open, w, tpc.TailMixed, 1); err == nil || !strings.Contains(err.Error(), "Durability") {
		t.Fatalf("drill accepted a deployment without the disk tier: %v", err)
	}
}

// TestRunDurabilityRejectsUnknownMode: an unknown corrupt-tail mode fails
// before the drill starts. The deployment commits unbatched, so every WAL
// tail is synced at the power loss and none reaches the per-tail
// corruption: only a check ahead of the drill can see the mode.
func TestRunDurabilityRejectsUnknownMode(t *testing.T) {
	dir, opened := t.TempDir(), 0
	open := func() (*repro.Cluster, error) {
		opened++
		return repro.New(repro.Config{
			Version:    repro.V3InlineLog,
			Backup:     repro.ActiveBackup,
			DBSize:     4 << 20,
			Backups:    1,
			Safety:     repro.TwoSafe,
			Durability: repro.DurabilityConfig{Dir: dir},
		})
	}
	w, err := tpc.NewDebitCredit(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpc.RunDurability(open, w, "bogus", 1); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("drill with corrupt-tail mode %q = %v, want an unknown-mode error", "bogus", err)
	}
	if opened != 0 {
		t.Fatalf("the deployment was opened %d times before the mode was rejected", opened)
	}
}

// TestRunDurabilityDrill: every corrupt-tail mode recovers with zero lost
// acked writes and a replay-exact image across seeds.
func TestRunDurabilityDrill(t *testing.T) {
	for _, mode := range []string{tpc.TailIntact, tpc.TailTorn, tpc.TailBitFlip, tpc.TailZeroed, tpc.TailMixed} {
		t.Run(mode, func(t *testing.T) {
			w, err := tpc.NewDebitCredit(4 << 20)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tpc.RunDurability(durOpen(t.TempDir(), 50), w, mode, uint64(31+len(mode)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovered < res.AckedDurable || res.Recovered > res.Total {
				t.Fatalf("recovered %d outside [%d,%d]", res.Recovered, res.AckedDurable, res.Total)
			}
			if res.Tails == 0 {
				t.Fatalf("no WAL tails captured: %+v", res)
			}
			if res.RecoveryWall <= 0 {
				t.Fatalf("recovery wall time %v", res.RecoveryWall)
			}
		})
	}
}

// TestRunDurabilitySnapshotInterval: a tighter snapshot interval replays
// fewer records at recovery — the knob the BENCH sweep turns.
func TestRunDurabilitySnapshotInterval(t *testing.T) {
	replayed := func(every int) int {
		w, err := tpc.NewDebitCredit(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tpc.RunDurability(durOpen(t.TempDir(), every), w, tpc.TailIntact, 99)
		if err != nil {
			t.Fatal(err)
		}
		return res.Recovery.Replayed
	}
	tight, loose := replayed(20), replayed(100000)
	if tight >= loose {
		t.Fatalf("replayed %d records at snapshot-every=20 vs %d with snapshots off the table", tight, loose)
	}
}
