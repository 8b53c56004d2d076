package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/tpc"
)

// The chaos experiment is the autopilot's acceptance run: a seeded,
// unattended fault schedule (crash the primary, crash a backup, crash the
// primary mid-repair) lands on a self-healing cluster, and the cell reports
// what a production replica manager would page on — per-event detection
// latency (MTTD), failover latency, repair duration and time-to-restored
// (MTTR) — next to the windowed throughput the cluster kept delivering.
func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Unattended fault schedule: detection, failover and repair latencies",
		Run:   runChaos,
	})
}

// runChaos lands four seeded faults on a 1-safe active-scheme cluster with
// three backups and two spares per fault.
func runChaos(cfg RunConfig) (*Table, error) {
	const (
		db      = 8 << 20
		backups = 3
		events  = 4
	)
	hb := 50 * time.Microsecond
	suspect := 200 * time.Microsecond
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: backups,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: hb,
			SuspectTimeout:  suspect,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          2 * events,
		},
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
	res, err := tpc.RunChaos(c, w, tpc.ChaosOptions{
		Window: 5 * time.Millisecond,
		Events: events,
		Warmup: warm,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1e6) }
	t := &Table{
		ID:      "chaos",
		Title:   "Unattended chaos run: per-event fault timeline (Debit-Credit workload)",
		Headers: []string{"Event", "Kind", "Node", "Failed (ms)", "MTTD (us)", "Failover (us)", "Repair (ms)", "Repair bytes", "MTTR (ms)"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=%d, 1-safe commit, %d MB database, autopilot: heartbeat %v, suspect %v, %d spares",
				backups, db>>20, hb, suspect, 2*events),
			fmt.Sprintf("schedule: %d seeded injections (%s); zero manual Failover/Repair calls", len(res.Injected), injectedKinds(res.Injected)),
			fmt.Sprintf("detection: mean MTTD %s us (max %s, bound %s); restoration: %d/%d events, mean MTTR %s ms (max %s)",
				us(res.MeanMTTD), us(res.MaxMTTD), us(suspect+hb), res.Restored, len(res.Events), ms(res.MeanMTTR), ms(res.MaxMTTR)),
			fmt.Sprintf("throughput: healthy %.0f txn/s, worst window %.0f txn/s (%.0f%% of baseline), %d committed",
				res.BaseTPS, res.MinTPS, 100*res.MinTPS/res.BaseTPS, res.Committed),
		),
	}
	for i, e := range res.Events {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			e.Kind,
			e.Node,
			ms(e.FailedAt),
			us(e.MTTD()),
			us(e.FailoverLatency()),
			ms(e.RepairDuration()),
			fmt.Sprintf("%d", e.RepairBytes),
			ms(e.MTTR()),
		})
	}
	return t, nil
}

func injectedKinds(faults []tpc.InjectedFault) string {
	s := ""
	for i, f := range faults {
		if i > 0 {
			s += ", "
		}
		s += f.Kind
	}
	return s
}
