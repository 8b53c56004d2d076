package repro_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// TestConcurrentShardDriving hammers a 4-shard cluster from 8 writer
// goroutines (two per shard) while a monitor samples every lock-free
// aggregate and a chaos goroutine repeatedly crashes, fails over and
// repairs shard 3. Run under -race this validates the concurrency
// discipline end to end: per-shard locks serialize same-shard
// transactions, disjoint shards run in parallel, management operations
// land on transaction boundaries, and the atomic counters never tear.
func TestConcurrentShardDriving(t *testing.T) {
	const (
		shards     = 4
		writers    = 8
		txnsPerW   = 120
		chaosShard = 3
	)
	sc, err := repro.NewSharded(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      testDB,
		CommitBatch: 4, // exercise the batched commit path concurrently too
	}, shards)
	if err != nil {
		t.Fatal(err)
	}

	var work sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < writers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			shard := w % shards
			base := shard * sc.ShardSize()
			slots := sc.ShardSize() / 128
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			got := make([]byte, 64)
			for i := 0; i < txnsPerW; i++ {
				off := base + ((w/shards)*txnsPerW+i)%slots*128
				tx, err := sc.Begin()
				if err != nil {
					t.Errorf("writer %d: begin: %v", w, err)
					return
				}
				if err := tx.SetRange(off, 64); err != nil {
					// The chaos goroutine crashed this shard: roll back
					// and keep going, like a client retrying elsewhere.
					_ = tx.Abort()
					continue
				}
				if err := tx.Write(off, buf); err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Read(off, got); err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(1)
				}
			}
		}(w)
	}

	// Monitor: sample every never-blocking aggregate while traffic runs.
	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sc.Stats()
			_ = sc.Committed()
			_ = sc.NetTraffic()
			_ = sc.Elapsed()
		}
	}()

	// Chaos: crash/failover/repair one shard, repeatedly, mid-traffic.
	work.Add(1)
	go func() {
		defer work.Done()
		for round := 0; round < 3; round++ {
			if err := sc.Shard(chaosShard).CrashPrimary(); err != nil {
				t.Errorf("chaos crash: %v", err)
				return
			}
			if err := sc.Shard(chaosShard).Failover(); err != nil {
				t.Errorf("chaos failover: %v", err)
				return
			}
			if err := sc.Shard(chaosShard).Repair(); err != nil {
				t.Errorf("chaos repair: %v", err)
				return
			}
		}
	}()

	work.Wait()
	close(stop)
	monitor.Wait()

	if committed.Load() == 0 {
		t.Fatal("no transaction committed under concurrency")
	}
	// Every shard still serves; the chaos shard repaired back to its
	// configured degree.
	sc.Settle()
	for i := 0; i < shards; i++ {
		off := i * sc.ShardSize()
		tx, err := sc.Begin()
		if err != nil {
			t.Fatalf("post-run begin: %v", err)
		}
		if err := tx.SetRange(off, 8); err != nil {
			t.Fatalf("post-run shard %d: %v", i, err)
		}
		if err := tx.Write(off, []byte("post-run")); err != nil {
			t.Fatalf("post-run shard %d write: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("post-run shard %d commit: %v", i, err)
		}
		got := make([]byte, 8)
		sc.ReadRaw(off, got)
		if !bytes.Equal(got, []byte("post-run")) {
			t.Fatalf("post-run shard %d readback mismatch", i)
		}
	}
	if got := sc.Shard(chaosShard).Backups(); got != 1 {
		t.Fatalf("chaos shard has %d backups after repair, want 1", got)
	}
}

// TestCrashMidTransaction pins the crash-anywhere semantics under the
// per-operation locking: the primary dies while a transaction is open,
// the dead handle's calls fail with ErrCrashed, and failover serves the
// committed prefix with the in-flight transaction rolled back — Begin is
// not blocked by the dead transaction's slot.
func TestCrashMidTransaction(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(0, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, []byte("committed-first!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	doomed, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.SetRange(64, 8); err != nil {
		t.Fatal(err)
	}
	if err := doomed.Write(64, []byte("in-fligh")); err != nil {
		t.Fatal(err)
	}
	// The crash lands between the open transaction's operations.
	if err := c.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := doomed.Commit(); err == nil {
		t.Fatal("commit on a crashed primary accepted")
	}
	if err := c.Failover(); err != nil {
		t.Fatal(err)
	}
	// The slot freed: a fresh transaction serves immediately.
	tx, err = c.Begin()
	if err != nil {
		t.Fatalf("begin after mid-tx crash failover: %v", err)
	}
	if err := tx.SetRange(128, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(128, []byte("takeover")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.ReadRaw(0, got)
	if string(got) != "committed-first!" {
		t.Fatalf("committed data lost: %q", got)
	}
	c.ReadRaw(64, got[:8])
	if !bytes.Equal(got[:8], make([]byte, 8)) {
		t.Fatalf("in-flight write survived the crash: %q", got[:8])
	}
}

// TestConcurrentSingleShard drives one cluster from many goroutines:
// Begin blocks until the previous transaction completes, so every
// transaction executes alone and the committed count equals the attempts.
func TestConcurrentSingleShard(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const each = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, 64)
			for i := 0; i < each; i++ {
				off := (g*each + i) * 64
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if err := tx.SetRange(off, 64); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					_ = tx.Abort()
					return
				}
				if err := tx.Write(off, payload); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Committed(); got != goroutines*each {
		t.Fatalf("Committed() = %d, want %d", got, goroutines*each)
	}
	// The interleaving is arbitrary but every committed write is intact.
	got := make([]byte, 64)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			c.ReadRaw((g*each+i)*64, got)
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(g + 1)}, 64)) {
				t.Fatalf("goroutine %d txn %d: write torn", g, i)
			}
		}
	}
	// A handle used after completion fails cleanly instead of corrupting
	// the recycled transaction.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	c.Settle()
	if err := c.CrashPrimary(); err != nil {
		t.Fatalf("crash after concurrent run: %v", err)
	}
	if err := c.Failover(); err != nil {
		t.Fatalf("failover after concurrent run: %v", err)
	}
	if got := c.Committed(); got < goroutines*each {
		t.Fatalf("failover lost settled commits: %d < %d", got, goroutines*each)
	}
}
