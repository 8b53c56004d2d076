package tpc_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

func chaosCluster(t *testing.T, db int) *repro.Cluster {
	t.Helper()
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: 3,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 50 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunChaosNeedsAutopilot(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tpc.NewDebitCredit(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpc.RunChaos(c, w, 0, 1); err == nil {
		t.Fatal("chaos accepted a cluster without autopilot")
	}
}

func TestRunChaosUnattended(t *testing.T) {
	const db = 4 << 20
	c := chaosCluster(t, db)
	w, err := tpc.NewDebitCredit(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tpc.RunChaos(c, w, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Injected) < 4 || len(res.Injected) > 8 {
		// Four events; a crash-during-repair may land as two injections
		// (backup then mid-repair primary).
		t.Fatalf("injected %d faults: %+v", len(res.Injected), res.Injected)
	}
	if len(res.Events) == 0 {
		t.Fatal("no autopilot events recorded")
	}
	if res.MeanMTTD <= 0 || res.MaxMTTD < res.MeanMTTD {
		t.Fatalf("MTTD aggregates inconsistent: mean %v max %v", res.MeanMTTD, res.MaxMTTD)
	}
	// Detection latency bound: Suspect after four heartbeat periods, Dead
	// one beat later.
	if bound := 250 * time.Microsecond; res.MaxMTTD > bound {
		t.Fatalf("MaxMTTD %v exceeds bound %v", res.MaxMTTD, bound)
	}
	if res.Restored == 0 || res.MeanMTTR <= 0 {
		t.Fatalf("no restorations recorded: %+v", res)
	}
	if res.BaseTPS <= 0 {
		t.Fatalf("baseline tps %v", res.BaseTPS)
	}
	// The tail windows prove committed throughput recovered.
	var tail float64
	var tailN int
	for _, win := range res.Windows {
		if win.Phase == "tail" {
			tail += win.TPS
			tailN++
		}
	}
	if tailN == 0 || tail/float64(tailN) < res.BaseTPS/4 {
		t.Fatalf("throughput never recovered: tail %.0f vs base %.0f", tail/float64(tailN), res.BaseTPS)
	}
}

// TestRunChaosDeterministic: the same seed reproduces the same schedule and
// the same timeline, window for window.
func TestRunChaosDeterministic(t *testing.T) {
	const db = 4 << 20
	run := func() tpc.ChaosResult {
		c := chaosCluster(t, db)
		w, err := tpc.NewDebitCredit(db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tpc.RunChaos(c, w, 100, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Windows) != len(b.Windows) || len(a.Injected) != len(b.Injected) {
		t.Fatalf("run shapes differ: %d/%d windows, %d/%d injections",
			len(a.Windows), len(b.Windows), len(a.Injected), len(b.Injected))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
	for i := range a.Injected {
		if a.Injected[i] != b.Injected[i] {
			t.Fatalf("injection %d differs: %+v vs %+v", i, a.Injected[i], b.Injected[i])
		}
	}
	if a.Committed != b.Committed || a.MeanMTTD != b.MeanMTTD || a.MeanMTTR != b.MeanMTTR {
		t.Fatalf("aggregates differ: %+v vs %+v", a, b)
	}
}
