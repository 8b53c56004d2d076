package tpc_test

import (
	"slices"
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

// chaosDrill drills the chaos cell's schedule on c: two healthy windows,
// the seeded chaos step, two strict tail windows.
func chaosDrill(t *testing.T, c *repro.Cluster, warmup int64, seed uint64) ([]tpc.Window, *tpc.Chaos) {
	t.Helper()
	ch, err := tpc.NewChaos(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	windows, _, err := drillDC(c, seed, warmup, 5*time.Millisecond,
		tpc.Step{Phase: "healthy", Windows: 2}, ch.Step(), tpc.Step{Phase: "tail", Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	return windows, ch
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
	if _, err := tpc.NewChaos(c, 1); err == nil {
		t.Fatal("chaos accepted a cluster without autopilot")
	}
}

func TestRunChaosUnattended(t *testing.T) {
	c := chaosCluster(t, 4<<20)
	windows, ch := chaosDrill(t, c, 200, 7)
	if len(ch.Injected) < 4 || len(ch.Injected) > 8 {
		// Four events; a crash-during-repair may land as two injections
		// (backup then mid-repair primary).
		t.Fatalf("injected %d faults: %+v", len(ch.Injected), ch.Injected)
	}
	events := c.AutopilotEvents()
	if len(events) == 0 {
		t.Fatal("no autopilot events recorded")
	}
	// Detection latency bound: Suspect after four heartbeat periods, Dead
	// one beat later.
	restored := 0
	for _, e := range events {
		if d := e.MTTD(); d <= 0 || d > 250*time.Microsecond {
			t.Fatalf("MTTD %v outside (0, 250us]: %+v", d, e)
		}
		if e.MTTR() > 0 {
			restored++
		}
	}
	if restored == 0 {
		t.Fatalf("no restorations recorded: %+v", events)
	}
	_, base, _ := tpc.PhaseStats(windows, "healthy")
	if base <= 0 {
		t.Fatalf("baseline tps %v", base)
	}
	// The tail windows prove committed throughput recovered.
	if n, tail, _ := tpc.PhaseStats(windows, "tail"); n != 2 || tail < base/4 {
		t.Fatalf("throughput never recovered: %d tail windows at %.0f vs base %.0f", n, tail, base)
	}
}

// TestRunChaosDeterministic: the same seed reproduces the same schedule and
// the same timeline, window for window.
func TestRunChaosDeterministic(t *testing.T) {
	type run struct {
		windows   []tpc.Window
		injected  []tpc.InjectedFault
		events    []repro.FailureEvent
		committed uint64
	}
	drill := func() run {
		c := chaosCluster(t, 4<<20)
		windows, ch := chaosDrill(t, c, 100, 42)
		return run{windows, ch.Injected, c.AutopilotEvents(), c.Committed()}
	}
	a, b := drill(), drill()
	if !slices.Equal(a.windows, b.windows) {
		t.Fatalf("timelines differ:\n%+v\n%+v", a.windows, b.windows)
	}
	if !slices.Equal(a.injected, b.injected) {
		t.Fatalf("schedules differ:\n%+v\n%+v", a.injected, b.injected)
	}
	if !slices.Equal(a.events, b.events) || a.committed != b.committed {
		t.Fatalf("outcomes differ: %d vs %d committed\n%+v\n%+v", a.committed, b.committed, a.events, b.events)
	}
}
