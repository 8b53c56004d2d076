package harness

import (
	"fmt"
	"strings"
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
		faults  = 4
	)
	hb := 50 * time.Microsecond
	suspect := 4 * hb // the autopilot's fixed Suspect threshold
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: backups,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: hb,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          2 * faults,
		},
	})
	if err != nil {
		return nil, err
	}
	ch, err := tpc.NewChaos(c, cfg.Seed)
	if err != nil {
		return nil, err
	}
	stream, err := dcStream(c, cfg.Seed)
	if err != nil {
		return nil, err
	}
	windows, err := tpc.Drill(c, stream.One, 5*time.Millisecond, min(cfg.Warmup, 2000),
		tpc.Step{Phase: "healthy", Windows: 2}, ch.Step(), tpc.Step{Phase: "tail", Windows: 2})
	if err != nil {
		return nil, err
	}
	events := c.AutopilotEvents()
	_, base, _ := tpc.PhaseStats(windows, "healthy")
	_, _, worst := tpc.PhaseStats(windows, "chaos", "tail")
	// Detection latency over every event; time to restored over the
	// events whose repair completed.
	var mttd, maxMTTD, mttr, maxMTTR time.Duration
	restored := 0
	for _, e := range events {
		mttd += e.MTTD()
		maxMTTD = max(maxMTTD, e.MTTD())
		if r := e.MTTR(); r > 0 {
			mttr += r
			maxMTTR = max(maxMTTR, r)
			restored++
		}
	}
	mean := func(sum time.Duration, n int) time.Duration {
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1e6) }
	kinds := make([]string, len(ch.Injected))
	for i, f := range ch.Injected {
		kinds[i] = f.Kind
	}
	t := &Table{
		ID:      "chaos",
		Title:   "Unattended chaos run: per-event fault timeline (Debit-Credit workload)",
		Headers: []string{"Event", "Kind", "Node", "Failed (ms)", "MTTD (us)", "Failover (us)", "Repair (ms)", "Repair bytes", "MTTR (ms)"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=%d, 1-safe commit, %d MB database, autopilot: heartbeat %v, suspect %v, %d spares",
				backups, db>>20, hb, suspect, 2*faults),
			fmt.Sprintf("schedule: %d seeded injections (%s); zero manual Failover/Repair calls", len(ch.Injected), strings.Join(kinds, ", ")),
			fmt.Sprintf("detection: mean MTTD %s us (max %s, bound %s); restoration: %d/%d events, mean MTTR %s ms (max %s)",
				us(mean(mttd, len(events))), us(maxMTTD), us(suspect+hb), restored, len(events), ms(mean(mttr, restored)), ms(maxMTTR)),
			fmt.Sprintf("throughput: healthy %.0f txn/s, worst window %.0f txn/s (%.0f%% of baseline), %d committed",
				base, worst, 100*worst/base, c.Committed()),
		),
	}
	for i, e := range events {
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
