package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/tpc"
)

// The availability experiment is the paper's headline concern made
// measurable end to end: windowed throughput across crash → failover →
// online repair → restored redundancy, with the repair's state transfer
// sharing the SAN with the live commit stream.
func init() {
	register(Experiment{
		ID:    "availability",
		Title: "Throughput timeline across crash, failover and online repair",
		Run:   runAvailability,
	})
}

// runAvailability measures the crash→failover→repair timeline on a
// 1-safe active-scheme cluster with two backups, one row per phase. The
// database is small enough to keep the run short and large enough that a
// full repair transfer would span tens of windows instead of vanishing
// into one.
func runAvailability(cfg RunConfig) (*Table, error) {
	const db = 8 << 20
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: 2,
	})
	if err != nil {
		return nil, err
	}
	stream, err := dcStream(c, cfg.Seed)
	if err != nil {
		return nil, err
	}
	windows, err := tpc.Drill(c, stream.One, 10*time.Millisecond, min(cfg.Warmup, 2000),
		tpc.Step{Phase: "healthy", Windows: 3},
		tpc.CrashRepair((*repro.Cluster).CrashPrimary),
		tpc.Step{Phase: "restored", Windows: 3})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "availability",
		Title: "Debit-Credit availability timeline (windowed txns/sec by phase)",
		Headers: []string{"Phase", "Windows", "Mean txn/s", "Worst txn/s", "vs healthy",
			"Repair (ms)", "Repair bytes", "Restored after (ms)"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=2, 1-safe commit, %d MB database, 10 ms windows", db>>20),
			"repair = between the primary crash and the online repair's cut-over; Restored after = crash to full redundancy"),
	}
	_, base, _ := tpc.PhaseStats(windows, "healthy")
	for _, phase := range []string{"healthy", "repair", "restored"} {
		n, mean, worst := tpc.PhaseStats(windows, phase)
		row := []string{phase, fmt.Sprintf("%d", n), f0(mean), f0(worst),
			fmt.Sprintf("%.2fx", mean/base), "-", "-", "-"}
		if phase == "repair" {
			// The repair starts at the crash, so its duration is also
			// the time back to full redundancy.
			p := c.RepairProgress()
			row[5] = f1(p.Elapsed.Seconds() * 1e3)
			row[6] = fmt.Sprintf("%d", p.BytesShipped)
			row[7] = row[5]
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
