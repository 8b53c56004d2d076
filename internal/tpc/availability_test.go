package tpc_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

// TestRunAvailabilityTimeline runs a small crash→failover→repair timeline
// and checks the shape of the measured curve: a healthy baseline, a
// completed repair with real transfer bytes, a restored tail, and an
// availability dip. Under 1-safe commits flow in every repair window (the
// non-blocking property at driver level); under 2-safe with the only
// backup gone the cluster refuses service until the repair cuts over, so
// the repair windows are empty and the dip is a genuine zero — which a
// later positive window must not overwrite.
func TestRunAvailabilityTimeline(t *testing.T) {
	const db = 4 << 20
	for _, tc := range []struct {
		name    string
		backups int
		safety  repro.Safety
		serves  bool // commits flow while the repair runs
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
			res, err := tpc.RunAvailability(c, w, tpc.AvailabilityOptions{
				Window:          2 * time.Millisecond,
				HealthyWindows:  2,
				RestoredWindows: 2,
				Warmup:          100,
				Seed:            3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.BaseTPS <= 0 {
				t.Fatalf("no healthy baseline: %+v", res)
			}
			if res.RepairBytes == 0 || res.RepairDur <= 0 {
				t.Fatalf("repair did no measurable work: %+v", res)
			}
			if res.RestoredAt <= res.CrashAt {
				t.Fatalf("restoration instant %v not after the crash %v", res.RestoredAt, res.CrashAt)
			}
			phases := map[string]int{}
			lastPhase := ""
			empty := 0
			for _, win := range res.Windows {
				phases[win.Phase]++
				switch {
				case win.Phase == "healthy" && lastPhase != "" && lastPhase != "healthy":
					t.Fatalf("healthy window after %q", lastPhase)
				case win.Phase == "restored" && lastPhase == "healthy":
					t.Fatal("restored window with no repair phase between")
				}
				if win.Phase == "repair" && win.Txns == 0 {
					empty++
				}
				lastPhase = win.Phase
			}
			if phases["healthy"] != 2 || phases["restored"] != 2 || phases["repair"] == 0 {
				t.Fatalf("unexpected phase mix: %v", phases)
			}
			if tc.serves {
				if empty != 0 {
					t.Fatalf("%d repair windows committed nothing", empty)
				}
				if res.MinTPS <= 0 || res.MinTPS >= res.BaseTPS {
					t.Fatalf("no availability dip: min %f, base %f", res.MinTPS, res.BaseTPS)
				}
			} else {
				if empty == 0 {
					t.Fatal("a 2-safe group with no backup committed in every repair window")
				}
				if res.MinTPS != 0 {
					t.Fatalf("MinTPS = %f, want 0: %d repair windows were empty", res.MinTPS, empty)
				}
			}
		})
	}
}
