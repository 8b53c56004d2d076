package tpc_test

import (
	"testing"

	"repro"
	"repro/internal/tpc"
)

// TestRunAvailabilityTimeline runs a small crash→failover→repair timeline
// and checks the shape of the measured curve: a healthy baseline, a repair
// phase, a restored tail, commits flowing in every repair window (the
// non-blocking property at driver level), and an availability dip below the
// baseline. The crashed primary re-joins from its own memory. Under 1-safe it holds commits the survivor never saw, so
// the repair has real bytes to ship; under 2-safe every commit it made
// reached its only backup, so it re-joins at the failover instant with
// nothing to ship, and the group that would refuse service while degraded
// never is. The root package's TestAvailabilityAfterPowerFail runs the same
// timeline with the primary's memory lost, where a 2-safe group does refuse.
func TestRunAvailabilityTimeline(t *testing.T) {
	const db = 4 << 20
	for _, tc := range []struct {
		name    string
		backups int
		safety  repro.Safety
		ships   bool // the re-join has bytes to transfer
	}{
		{"1safe-K2", 2, repro.OneSafe, true},
		{"2safe-K1", 1, repro.TwoSafe, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := repro.New(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  db,
				Backups: tc.backups,
				Safety:  tc.safety,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, err := tpc.NewDebitCredit(db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tpc.RunAvailability(c, c.CrashPrimary, w, 100, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.BaseTPS <= 0 {
				t.Fatalf("no healthy baseline: %+v", res)
			}
			if shipped := res.RepairBytes > 0 && res.RepairDur > 0; shipped != tc.ships {
				t.Fatalf("repair shipped %d bytes in %v, want bytes: %v", res.RepairBytes, res.RepairDur, tc.ships)
			}
			if res.RestoredAt < res.CrashAt || (tc.ships && res.RestoredAt == res.CrashAt) {
				t.Fatalf("restoration instant %v against the crash %v", res.RestoredAt, res.CrashAt)
			}
			phases := map[string]int{}
			lastPhase := ""
			for _, win := range res.Windows {
				phases[win.Phase]++
				switch {
				case win.Phase == "healthy" && lastPhase != "" && lastPhase != "healthy":
					t.Fatalf("healthy window after %q", lastPhase)
				case win.Phase == "restored" && lastPhase == "healthy":
					t.Fatal("restored window with no repair phase between")
				}
				if win.Phase == "repair" && win.Txns == 0 {
					t.Fatalf("a repair window committed nothing: %+v", win)
				}
				lastPhase = win.Phase
			}
			if phases["healthy"] != 3 || phases["restored"] != 3 || phases["repair"] == 0 {
				t.Fatalf("unexpected phase mix: %v", phases)
			}
			if res.MinTPS <= 0 || res.MinTPS >= res.BaseTPS {
				t.Fatalf("no availability dip: min %f, base %f", res.MinTPS, res.BaseTPS)
			}
		})
	}
}

// TestPhaseStatsKeepsAnEmptyWindow: a window that committed nothing is a
// genuine zero, which a later positive window must not overwrite.
func TestPhaseStatsKeepsAnEmptyWindow(t *testing.T) {
	windows := []tpc.Window{
		{Phase: "healthy", TPS: 100},
		{Phase: "repair", TPS: 0},
		{Phase: "repair", TPS: 50},
	}
	if n, mean, worst := tpc.PhaseStats(windows, "repair"); n != 2 || mean != 25 || worst != 0 {
		t.Fatalf("PhaseStats = %d, %f, %f; want 2, 25, 0", n, mean, worst)
	}
}
