package harness

import (
	"fmt"

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
	w, err := tpc.NewDebitCredit(db)
	if err != nil {
		return nil, err
	}
	warm := cfg.Warmup
	if warm > 2000 {
		warm = 2000
	}
	res, err := tpc.RunAvailability(c, c.CrashPrimary, w, warm, cfg.Seed)
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
	for _, phase := range []string{"healthy", "repair", "restored"} {
		n, mean, worst := tpc.PhaseStats(res.Windows, phase)
		row := []string{phase, fmt.Sprintf("%d", n), f0(mean), f0(worst),
			fmt.Sprintf("%.2fx", mean/res.BaseTPS), "-", "-", "-"}
		if phase == "repair" {
			row[5] = f1(res.RepairDur.Seconds() * 1e3)
			row[6] = fmt.Sprintf("%d", res.RepairBytes)
			row[7] = f1((res.RestoredAt - res.CrashAt).Seconds() * 1e3)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
