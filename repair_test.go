package repro_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
	"repro/kv"
)

// TestFacadeRepairAsync drives the online repair through the public API:
// crash, fail over, RepairAsync, keep committing while the transfer is in
// flight, watch RepairProgress to completion, and verify the healed
// cluster fails over again with nothing lost.
func TestFacadeRepairAsync(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RepairAsync(); !errors.Is(err, repro.ErrNotRepairable) {
		t.Fatalf("repair of a healthy cluster: %v", err)
	}

	commit := func(slot int, payload string) {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(slot*32, 32))
		buf := make([]byte, 32)
		copy(buf, payload)
		must(t, tx.Write(slot*32, buf))
		must(t, tx.Commit())
	}
	for i := 0; i < 20; i++ {
		commit(i, "before")
	}
	c.Settle()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	// The old primary re-joins from its own memory: it misses what the
	// promoted node commits from here on.
	for i := 0; i < 20; i++ {
		commit(20+i, "after")
	}
	must(t, c.RepairAsync())

	p := c.RepairProgress()
	if !p.Active || p.BytesPlanned == 0 {
		t.Fatalf("repair not in flight after RepairAsync: %+v", p)
	}
	syncTraffic := c.NetTraffic().SyncBytes
	for i := 0; i < 500000 && c.RepairProgress().Active; i++ {
		commit(20+i%1000, "during")
		if i%100 == 0 {
			c.Settle()
		}
	}
	p = c.RepairProgress()
	if p.Active {
		t.Fatalf("repair never completed: %+v", p)
	}
	if p.BytesShipped == 0 || p.Elapsed <= 0 {
		t.Fatalf("completed repair reports no work: %+v", p)
	}
	if got := c.NetTraffic().SyncBytes; got <= syncTraffic {
		t.Fatalf("state-transfer traffic not accounted in NetTraffic: %d", got)
	}
	if c.Backups() != 2 {
		t.Fatalf("repair left %d backups, want 2", c.Backups())
	}

	// The healed cluster survives another crash with everything intact.
	c.Settle()
	total := c.Committed()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	if got := c.Committed(); got != total {
		t.Fatalf("failover after online repair lost commits: %d of %d", got, total)
	}
	buf := make([]byte, 6)
	c.ReadRaw(0, buf)
	if string(buf) != "before" {
		t.Fatalf("pre-crash data lost: %q", buf)
	}
}

// TestShardedRepairAsync: per-shard online repair through the sharded
// front-end — the other shards keep serving while one heals.
func TestShardedRepairAsync(t *testing.T) {
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	commitAt := func(off int) {
		t.Helper()
		tx, err := sc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(off, 8))
		must(t, tx.Write(off, []byte("sharded!")))
		must(t, tx.Commit())
	}
	for i := 0; i < 4; i++ {
		commitAt(i * sc.ShardSize())
	}
	sc.Settle()
	must(t, sc.Shard(1).CrashPrimary())
	must(t, sc.Shard(1).Failover())
	commitAt(sc.ShardSize()) // a page the re-joining old primary misses
	must(t, sc.Shard(1).RepairAsync())
	if !sc.Shard(1).RepairProgress().Active {
		t.Fatal("shard 1 repair not in flight")
	}
	if sc.Shard(0).RepairProgress().Active {
		t.Fatal("shard 0 reports a repair it never started")
	}
	// Other shards serve while shard 1 heals; shard 1's own stream pumps
	// its transfer along.
	for i := 0; i < 200000 && sc.Shard(1).RepairProgress().Active; i++ {
		commitAt((i % 4) * sc.ShardSize())
		if i%100 == 0 {
			sc.Settle()
		}
	}
	if p := sc.Shard(1).RepairProgress(); p.Active {
		t.Fatalf("shard repair never completed: %+v", p)
	}
	if sc.Shard(1).Backups() != 1 {
		t.Fatalf("shard 1 has %d backups after repair, want 1", sc.Shard(1).Backups())
	}
	if v := sc.Shard(9); v != nil {
		t.Fatalf("out-of-range shard view: %v", v)
	}
}

// TestFacadeRepairSealsOpenBatch: the synchronous Repair of the public API
// returns with commits still sitting in an open CommitBatch batch (it seals
// them; it used to wait forever for the cut-over they blocked), and what it
// sealed is on the survivors.
func TestFacadeRepairSealsOpenBatch(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      testDB,
		Backups:     3,
		Safety:      repro.QuorumSafe,
		CommitBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 3
	for i := 0; i < commits; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(i*32, 8))
		must(t, tx.Write(i*32, []byte("unsealed")))
		must(t, tx.Commit())
	}
	must(t, c.CrashBackup(0))
	done := make(chan error, 1)
	go func() { done <- c.Repair() }()
	select {
	case err := <-done:
		must(t, err)
	case <-time.After(20 * time.Second):
		t.Fatal("Repair has not returned: it is waiting for a cut-over that needs the open batch sealed")
	}
	if p := c.RepairProgress(); p.Active || c.Backups() != 3 {
		t.Fatalf("after Repair: %d backups, progress %+v", c.Backups(), p)
	}
	must(t, c.CrashPrimary()) // no Settle, no Flush: Repair sealed the batch
	must(t, c.Failover())
	if got := c.Committed(); got != commits {
		t.Fatalf("survivor holds %d commits, want the %d Repair sealed", got, commits)
	}
}

// TestRepairLeavesNoBacklog: "repaired" includes "transferred". The
// synchronous Repair pushes its whole transfer onto the link at one clock
// reading; it must not return with those bytes still queued ahead of the
// commits that follow. The probe is EXPERIMENTS.md's: 100 B kv.Put over
// 4 000 keys on an 8 MiB V3 / active / K=3 / quorum deployment, three
// windows of 20 000 PUTs around CrashPrimary → Failover → Repair → Reopen.
// The first window after Repair must serve what the window before the crash
// did; it read a third less while the transfer's tail was left on the link.
func TestRepairLeavesNoBacklog(t *testing.T) {
	db, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		Backups: 3,
		Safety:  repro.QuorumSafe,
		DBSize:  8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const keys, window = 4000, 20000
	key := make([][]byte, keys)
	for i := range key {
		key[i] = []byte(fmt.Sprintf("key%06d", i))
		must(t, s.Put(key[i], make([]byte, 100)))
	}
	n := 0
	putsPerSec := func() float64 {
		db.ResetMeasurement()
		val := make([]byte, 100)
		for i := 0; i < window; i++ {
			val[0] = byte(n)
			must(t, s.Put(key[n%keys], val))
			n++
		}
		return window / db.Elapsed().Seconds()
	}
	before := putsPerSec()
	must(t, db.CrashPrimary())
	must(t, db.Failover())
	must(t, db.Repair())
	must(t, s.Reopen())
	first, second := putsPerSec(), putsPerSec()
	t.Logf("sim PUT/s: %.0f before the crash, %.0f and %.0f after Repair", before, first, second)
	for _, after := range []float64{first, second} {
		if after < 0.99*before || after > 1.01*before {
			t.Fatalf("a window after Repair serves %.0f PUT/s, not within 1%% of the %.0f before the crash", after, before)
		}
	}
}

// TestAvailabilityAfterPowerFail drills the crash→failover→repair schedule
// with the primary's memory gone, so it heals through a spare and a full
// transfer. A spare re-seeds in full, so the repair ships bytes and takes
// time. Under 1-safe commits flow in every repair window and the dip stays
// above zero; under 2-safe with the only backup being the joiner, the
// group refuses service until the cut-over, so repair windows are empty
// and the dip is a genuine zero that a later positive window must not
// overwrite.
func TestAvailabilityAfterPowerFail(t *testing.T) {
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
			stream, err := tpc.Stream(c, w, 3)
			if err != nil {
				t.Fatal(err)
			}
			windows, err := tpc.Drill(c, stream.One, 10*time.Millisecond, 100,
				tpc.Step{Phase: "healthy", Windows: 3},
				tpc.CrashRepair(repro.PowerFailPrimary),
				tpc.Step{Phase: "restored", Windows: 3})
			if err != nil {
				t.Fatal(err)
			}
			_, base, _ := tpc.PhaseStats(windows, "healthy")
			_, _, dip := tpc.PhaseStats(windows, "repair")
			if base <= 0 {
				t.Fatalf("no healthy baseline: %+v", windows)
			}
			if p := c.RepairProgress(); p.Active || p.BytesShipped == 0 || p.Elapsed <= 0 {
				t.Fatalf("repair did no measurable work: %+v", p)
			}
			empty := 0
			for _, win := range windows {
				if win.Phase == "repair" && win.Txns == 0 {
					empty++
				}
			}
			if tc.serves {
				if empty != 0 {
					t.Fatalf("%d repair windows committed nothing", empty)
				}
				if dip <= 0 || dip >= base {
					t.Fatalf("no availability dip: min %f, base %f", dip, base)
				}
			} else {
				if empty == 0 {
					t.Fatal("a 2-safe group with no backup committed in every repair window")
				}
				if dip != 0 {
					t.Fatalf("worst repair window %f, want 0: %d repair windows were empty", dip, empty)
				}
			}
		})
	}
}
