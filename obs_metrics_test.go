package repro_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/tpc"
)

// obsRun drives a deterministic Debit-Credit interval — commits, a
// crash/failover/repair cycle, more commits — against one cluster and
// returns the sim metrics a PR 1–8 bench would scrape.
func obsRun(t *testing.T, metrics bool) (repro.DB, repro.Stats, repro.Traffic, time.Duration) {
	t.Helper()
	const db = 4 << 20
	c, err := repro.New(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      db,
		Backups:     3,
		Safety:      repro.QuorumSafe,
		CommitBatch: 8,
		Metrics:     metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tpc.NewDebitCredit(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(c.Load); err != nil {
		t.Fatal(err)
	}
	r := tpc.NewRand(7)
	txn := func(i int64) {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Txn(r, tx, i); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 300; i++ {
		txn(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if err := c.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := c.Failover(); err != nil {
		t.Fatal(err)
	}
	// The old primary re-joins from its own memory, by what it missed.
	for i := int64(300); i < 400; i++ {
		txn(i)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	for i := int64(400); i < 600; i++ {
		txn(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	return c, c.Stats(), c.NetTraffic(), c.Elapsed()
}

// TestMetricsOffBitForBit is the off-switch contract: the same
// deterministic interval — commits, group-commit flushes, a full
// crash/failover/repair cycle — produces bit-for-bit identical sim
// metrics (Stats, NetTraffic, Elapsed) with and without the obs registry
// attached, and with Config.Metrics off the Metrics() snapshot is empty.
// Instrumentation observes the simulation; it must never perturb it.
func TestMetricsOffBitForBit(t *testing.T) {
	off, offStats, offNet, offElapsed := obsRun(t, false)
	on, onStats, onNet, onElapsed := obsRun(t, true)

	if offStats != onStats {
		t.Errorf("Stats diverge: off %+v, on %+v", offStats, onStats)
	}
	if offNet != onNet {
		t.Errorf("NetTraffic diverges: off %+v, on %+v", offNet, onNet)
	}
	if offElapsed != onElapsed {
		t.Errorf("Elapsed diverges: off %v, on %v", offElapsed, onElapsed)
	}

	if snap := off.Metrics(); !snap.Empty() {
		t.Errorf("Metrics off: non-empty snapshot %+v", snap.Names())
	}
	snap := on.Metrics()
	if snap.Empty() {
		t.Fatal("Metrics on: empty snapshot")
	}
	// Stats is a measured-interval counter (failover cuts it); the obs
	// counter, like Committed(), spans the deployment's whole life.
	if got := snap.Counter(replication.MetricCommitTxns); got != on.Committed() {
		t.Errorf("repl.commit.txns = %d, want %d committed", got, on.Committed())
	}
	if h := snap.Hist("repl.commit.latency.quorum"); h.Count == 0 {
		t.Error("quorum commit latency histogram never observed")
	}
	if len(snap.EventsKind(obs.EventFailover)) != 1 {
		t.Errorf("failover events = %d, want 1", len(snap.EventsKind(obs.EventFailover)))
	}
	if len(snap.EventsKind(obs.EventRepairCutover)) == 0 {
		t.Error("repair cutover never traced")
	}
}

// TestMetricsResetWindow: ResetMeasurement cuts an obs window atomically —
// counters and histograms zero, the window epoch bumps so a scraper can
// tell deltas across the cut apart, and the event ring (a timeline, like
// the FailureEvent record) survives.
func TestMetricsResetWindow(t *testing.T) {
	c, _, _, _ := obsRun(t, true)
	before := c.Metrics()
	if before.Counter(replication.MetricCommitTxns) == 0 {
		t.Fatal("no commits recorded before reset")
	}
	events := len(before.Events)

	c.ResetMeasurement()
	after := c.Metrics()
	if after.Window != before.Window+1 {
		t.Errorf("window epoch %d after reset, want %d", after.Window, before.Window+1)
	}
	if got := after.Counter(replication.MetricCommitTxns); got != 0 {
		t.Errorf("repl.commit.txns = %d after reset, want 0", got)
	}
	if h := after.Hist("repl.commit.latency.quorum"); h.Count != 0 {
		t.Errorf("commit latency count = %d after reset, want 0", h.Count)
	}
	if len(after.Events) != events {
		t.Errorf("reset dropped events: %d -> %d", events, len(after.Events))
	}
}

// TestMetricsScrapeRace is the issue's concurrency drill: 4 goroutines
// scrape DB.Metrics() while 8 writers commit and chaos crashes the
// primary under the autopilot. Run under -race this pins the scrape path
// (registry snapshot, ring copy, hist buckets) as data-race-free against
// the hot path; the assertions check scrape coherence — event sequence
// numbers never run backwards and the final timeline holds the
// detect→failover trace.
func TestMetricsScrapeRace(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Metrics: true,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		each    = 150
	)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	var (
		wg        sync.WaitGroup
		committed atomic.Int64
		done      = make(chan struct{})
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off := (g*each + i) * 64
				deadline := time.Now().Add(10 * time.Second)
				for {
					err := func() error {
						tx, err := c.Begin()
						if err != nil {
							return err
						}
						if err := tx.SetRange(off, 64); err != nil {
							_ = tx.Abort()
							return err
						}
						if err := tx.Write(off, payload); err != nil {
							_ = tx.Abort()
							return err
						}
						return tx.Commit()
					}()
					if err == nil {
						committed.Add(1)
						break
					}
					// Mid-failover refusals (crashed, lease fenced, below
					// safety) are retryable; anything persisting past the
					// deadline is a real failure. The detector runs on the
					// simulated clock, so a refused writer settles the
					// deployment — idle sim time is what lets the autopilot
					// declare the primary dead and promote.
					if time.Now().After(deadline) {
						t.Errorf("writer %d op %d never recovered: %v", g, i, err)
						return
					}
					c.Settle()
				}
			}
		}(g)
	}

	// 4 concurrent scrapers: every snapshot must be internally coherent.
	var swg sync.WaitGroup
	for s := 0; s < 4; s++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := c.Metrics()
				if n := len(snap.Events); n > 0 {
					if seq := snap.Events[n-1].Seq; seq < lastSeq {
						t.Errorf("event seq ran backwards: %d after %d", seq, lastSeq)
						return
					} else {
						lastSeq = seq
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}

	// Chaos: kill the primary once a quarter of the load has landed; the
	// autopilot promotes and repairs while writers retry through it.
	for committed.Load() < writers*each/8 {
		time.Sleep(10 * time.Microsecond)
	}
	if err := c.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The load may have drained before the crash landed; the unattended
	// takeover rides on admission, so keep knocking (Begin pumps the
	// failure loop) until the promotion reaches the ring.
	for i := 0; i < 1000 && len(c.Metrics().EventsKind(obs.EventFailover)) == 0; i++ {
		if tx, err := c.Begin(); err == nil {
			_ = tx.Abort()
		}
		c.Settle()
	}
	close(done)
	swg.Wait()

	snap := c.Metrics()
	if len(snap.EventsKind(obs.EventDetectDead)) == 0 {
		t.Error("crash never traced as detect.dead")
	}
	if len(snap.EventsKind(obs.EventFailover)) == 0 {
		t.Error("promotion never traced as failover")
	}
	if got := snap.Counter(replication.MetricCommitTxns); got < uint64(committed.Load()) {
		t.Errorf("repl.commit.txns = %d, want >= %d acked commits", got, committed.Load())
	}
}

// TestShardedMetricsMerge: the sharded facade merges its per-shard
// registries into one snapshot — counters sum, and every event is
// stamped with its owning shard so a trace reads unambiguously.
func TestShardedMetricsMerge(t *testing.T) {
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
		Backups: 2,
		Metrics: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	const txns = 40
	for i := 0; i < txns; i++ {
		off := (i % 2) * sc.ShardSize() // alternate shards
		tx, err := sc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(off, 64); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(off, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sc.Settle()
	// Fail shard 1 only: its events must carry Shard == 1.
	if err := sc.Shard(1).CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Shard(1).Failover(); err != nil {
		t.Fatal(err)
	}

	snap := sc.Metrics()
	if got := snap.Counter(replication.MetricCommitTxns); got != txns {
		t.Errorf("merged repl.commit.txns = %d, want %d", got, txns)
	}
	fails := snap.EventsKind(obs.EventFailover)
	if len(fails) != 1 {
		t.Fatalf("failover events = %d, want 1", len(fails))
	}
	if fails[0].Shard != 1 {
		t.Errorf("failover stamped shard %d, want 1", fails[0].Shard)
	}
}

// TestChaosEventTimeline is the live-scrape acceptance drill: the seeded
// unattended chaos run (tpc.RunChaos) with the registry attached, scraped
// concurrently, must expose each injected fault as a detector transition
// followed by a failover and a repair cutover in the event ring.
func TestChaosEventTimeline(t *testing.T) {
	const db = 4 << 20
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: 3,
		Metrics: true,
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
	w, err := tpc.NewDebitCredit(db)
	if err != nil {
		t.Fatal(err)
	}

	// Live scraper riding along with the chaos run.
	done := make(chan struct{})
	var scrapes atomic.Int64
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if !c.Metrics().Empty() {
				scrapes.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	res, err := tpc.RunChaos(c, w, 300, 1)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("chaos run injected no faults")
	}
	if scrapes.Load() == 0 {
		t.Error("live scraper never saw a populated snapshot")
	}

	snap := c.Metrics()
	detects := append(snap.EventsKind(obs.EventDetectSuspect), snap.EventsKind(obs.EventDetectDead)...)
	fails := snap.EventsKind(obs.EventFailover)
	cuts := snap.EventsKind(obs.EventRepairCutover)
	// Every handled fault opens a repair job; an enrolled member's death
	// additionally crosses the detector (a mid-join replica's crash is
	// noticed by its repair job instead — repair.abort — because the
	// detector only watches enrolled members).
	repairs := len(snap.EventsKind(obs.EventRepairStart))
	if repairs < len(res.Events) {
		t.Errorf("repair jobs traced: %d, want >= %d handled faults", repairs, len(res.Events))
	}
	primaryCrashes := 0
	for _, f := range res.Injected {
		if f.Kind == "crash-primary" {
			primaryCrashes++
		}
	}
	if len(fails) < primaryCrashes {
		t.Errorf("failovers traced: %d, want >= %d primary crashes", len(fails), primaryCrashes)
	}
	if len(detects) == 0 || len(cuts) == 0 {
		t.Fatalf("incomplete fault trace: %d detector transitions, %d cutovers", len(detects), len(cuts))
	}
	// Causality in the ring: something was detected before the first
	// promotion, and the first repair completed after it.
	firstDetect, firstFail := detects[0].Seq, fails[0].Seq
	for _, e := range detects[1:] {
		if e.Seq < firstDetect {
			firstDetect = e.Seq
		}
	}
	if firstDetect > firstFail {
		t.Errorf("first failover (seq %d) precedes every detection (first seq %d)", firstFail, firstDetect)
	}
	if cuts[0].Seq < firstFail {
		t.Errorf("first repair cutover (seq %d) precedes first failover (seq %d)", cuts[0].Seq, firstFail)
	}
}
