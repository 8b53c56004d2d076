package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/kv"
)

// quorum3 is the served deployment's shape: three backups, quorum commit.
func quorum3(cfg repro.Config) repro.Config {
	cfg.Backups = 3
	cfg.Safety = repro.QuorumSafe
	return cfg
}

func burstKey(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }

// preload writes n keys with value "old<i>" through the store's own,
// per-call acknowledged path.
func preload(t *testing.T, s *kv.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(burstKey(i), []byte(fmt.Sprintf("old%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// wantValues checks keys [from, to) against a value prefix.
func wantValues(t *testing.T, s *kv.Store, from, to int, prefix string) {
	t.Helper()
	for i := from; i < to; i++ {
		want := fmt.Sprintf("%s%03d", prefix, i)
		if got, err := s.Get(burstKey(i)); err != nil || string(got) != want {
			t.Errorf("key %d reads %q, %v; want %q", i, got, err, want)
		}
	}
}

func commitCounters(db repro.DB) (batches, txns uint64) {
	m := db.Metrics()
	return m.Counter("repl.commit.batches"), m.Counter("repl.commit.txns")
}

// TestBurstSealsOnce: on a one-shard deployment a burst's mutations are
// one transaction under one seal, a Get inside the burst sees the burst's
// own write, and a direct Put afterwards is its own transaction,
// acknowledged per call as ever.
func TestBurstSealsOnce(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{Metrics: true}))
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 4)
	b0, t0 := commitCounters(db)

	b := s.Burst()
	for i := 0; i < 3; i++ {
		if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := b.Get(burstKey(1)); err != nil || string(got) != "new001" {
		t.Fatalf("Get inside the burst = %q, %v; want the burst's own write", got, err)
	}
	if err := b.Delete(burstKey(3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 1 {
		t.Fatalf("burst sealed %d batches for %d transactions, want 1 for 1", b1-b0, t1-t0)
	}
	wantValues(t, s, 0, 3, "new")
	if _, err := s.Get(burstKey(3)); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key reads %v, want ErrNotFound", err)
	}

	b0, t0 = commitCounters(db)
	if err := s.Put(burstKey(0), []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 1 {
		t.Fatalf("direct Put sealed %d batches for %d transactions, want 1 for 1", b1-b0, t1-t0)
	}

	// The burst is reusable, and an idle Seal is a no-op.
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(burstKey(3), []byte("new003")); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	wantValues(t, s, 3, 4, "new")
}

// TestBurstHoldsTheStore: from a burst's first operation to its seal no
// other caller gets at the store — the reason nobody can observe a write
// whose acknowledgement is still pending.
func TestBurstHoldsTheStore(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{}))
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 1)
	b := s.Burst()
	if err := b.Put(burstKey(0), []byte("new000")); err != nil {
		t.Fatal(err)
	}
	read := make(chan string, 1)
	go func() {
		v, err := s.Get(burstKey(0))
		read <- fmt.Sprintf("%s %v", v, err)
	}()
	select {
	case got := <-read:
		t.Fatalf("a Get from outside the burst returned %q before the seal", got)
	case <-time.After(50 * time.Millisecond):
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := <-read; got != "new000 <nil>" {
		t.Fatalf("Get after the seal = %q", got)
	}
}

// TestBurstCrashInTheGap: the primary dies between a burst's commits and
// its seal. The seal fails, the store is broken, and after failover and
// Reopen the keys read what was acknowledged before the burst.
func TestBurstCrashInTheGap(t *testing.T) {
	const keys = 40

	// A compared overwrite ("old000" → "o__000") writes only its middle
	// two bytes; the dead primary takes them along, and the key still
	// reads its whole old value.
	for name, value := range map[string]string{"manual-failover": "new%03d", "compared-overwrite": "o__%03d"} {
		t.Run(name, func(t *testing.T) {
			db := newCluster(t, quorum3(repro.Config{}))
			admin := db.(repro.Admin)
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, keys)
			b := s.Burst()
			for i := 0; i < 3; i++ {
				if err := b.Put(burstKey(i), []byte(fmt.Sprintf(value, i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := admin.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := b.Seal(); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("seal after the crash = %v, want ErrCrashed", err)
			}
			if _, err := s.Get(burstKey(0)); !errors.Is(err, kv.ErrBroken) {
				t.Fatalf("Get on the store after the failed seal = %v, want ErrBroken", err)
			}
			if err := admin.Failover(); err != nil {
				t.Fatal(err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			wantValues(t, s, 0, keys, "old")
		})
	}

	// The primary dies while the burst's transaction is open, and the next
	// PUT writes into it: that PUT fails, the transaction aborts with every
	// mutation staged in it, and the seal reports the crash.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("mutation-after-the-crash/shards=%d", shards), func(t *testing.T) {
			c := newSharded(t, shards, quorum3(repro.Config{})).(*repro.Cluster)
			s, err := kv.Open(c)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, keys)
			b := s.Burst()
			dead := shardOf(c, s, 0)
			var last int // a key of the dead shard's, PUT after the crash
			for i := 0; i < keys; i++ {
				if shardOf(c, s, i) == dead {
					last = i
				}
			}
			for i := 0; i < keys; i++ {
				if i != last {
					if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Shard(dead).CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(burstKey(last), []byte("lost")); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("PUT on the dead shard = %v, want ErrCrashed", err)
			}
			if _, err := b.Get(burstKey(0)); !errors.Is(err, kv.ErrBroken) {
				t.Fatalf("Get after the lost transaction = %v, want ErrBroken", err)
			}
			if err := b.Seal(); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("seal = %v, want ErrCrashed", err)
			}
			if err := c.Shard(dead).Failover(); err != nil {
				t.Fatal(err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			wantValues(t, s, 0, keys, "old")
		})
	}

	// The crash lands just before a burst's multi-key Txn begins the
	// transaction its keys stage in, once the burst's has committed under
	// the open scope, on a deployment whose autopilot would promote a
	// survivor at that Begin without telling anyone — and the Txn, planned
	// over state only the dead primary had, would commit on a node that
	// never saw the burst's PUT.
	// Inside a burst that lost commits the Begin is refused instead; the
	// takeover waits for Reopen.
	t.Run("autopilot-crash-before-begin", func(t *testing.T) {
		c := newCluster(t, quorum3(repro.Config{Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
		}})).(*repro.Cluster)
		db := &crashBeforeBegin{Cluster: c}
		s, err := kv.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, keys)
		b := s.Burst()
		if err := b.Put(burstKey(0), []byte("new000")); err != nil {
			t.Fatal(err)
		}
		txn, err := b.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put(burstKey(1), []byte("new001")); err != nil {
			t.Fatal(err)
		}
		db.armed = true
		if err := txn.Commit(); !errors.Is(err, repro.ErrCrashed) {
			t.Fatalf("Txn whose Begin follows the crash = %v, want ErrCrashed", err)
		}
		if got := c.Generation(); got != 0 {
			t.Fatalf("generation %d: a survivor was promoted inside the burst", got)
		}
		if err := b.Put(burstKey(2), []byte("new002")); !errors.Is(err, kv.ErrBroken) {
			t.Fatalf("PUT after the refused one = %v, want ErrBroken", err)
		}
		if err := b.Seal(); !errors.Is(err, repro.ErrCrashed) {
			t.Fatalf("seal = %v, want ErrCrashed", err)
		}
		if err := s.Reopen(); err != nil { // its admission probe promotes
			t.Fatal(err)
		}
		if got := c.Generation(); got != 1 {
			t.Fatalf("generation %d after Reopen, want 1", got)
		}
		wantValues(t, s, 0, keys, "old")
		if got := s.Len(); got != keys {
			t.Fatalf("%d live keys after Reopen, want %d", got, keys)
		}
	})

	// Four shards: the burst's PUTs land on two of them, and one of those
	// loses its primary before the seal. The transaction commits shard by
	// shard in shard order: the dead shard's commit fails and a later
	// shard's is aborted, an earlier shard's ships. So after the failover
	// and Reopen the live shard's keys read the burst's values when it is
	// the lower, and every other key what it held before the burst. In the
	// degraded case the live shard is sealed first and comes back short of
	// its quorum: its ErrSafetyUnavailable must not hide the later shard's
	// crash, or the store would stay unbroken with an index over the lost
	// commits.
	for _, tc := range []struct {
		name       string
		live, dead int
		degraded   bool
	}{
		{"four-shards", 2, 1, false},
		{"four-shards-degraded-before-crashed", 0, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newSharded(t, 4, quorum3(repro.Config{})).(*repro.Cluster)
			s, err := kv.Open(c)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, keys)
			b := s.Burst()
			put := map[int]int{}     // the burst's PUTs per shard
			sealed := map[int]bool{} // the keys it put on the live shard
			for i := 0; i < keys; i++ {
				if sh := shardOf(c, s, i); (sh == tc.dead || sh == tc.live) && put[sh] < 3 {
					put[sh]++
					sealed[i] = sh == tc.live && tc.live < tc.dead
					if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if put[tc.dead] == 0 || put[tc.live] == 0 {
				t.Fatalf("PUTs per shard %v: the test needs some on shards %d and %d", put, tc.dead, tc.live)
			}
			if tc.degraded {
				for i := 0; i < 2; i++ {
					if err := c.Shard(tc.live).CrashBackup(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Shard(tc.dead).CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := b.Seal(); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("seal after shard %d's crash = %v, want ErrCrashed", tc.dead, err)
			}
			if _, err := s.Get(burstKey(0)); !errors.Is(err, kv.ErrBroken) {
				t.Fatalf("Get on the store after the failed seal = %v, want ErrBroken", err)
			}
			if err := c.Shard(tc.dead).Failover(); err != nil {
				t.Fatal(err)
			}
			if tc.degraded {
				if err := c.Shard(tc.live).Repair(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				prefix := "old"
				if sealed[i] {
					prefix = "new"
				}
				wantValues(t, s, i, i+1, prefix)
			}
			if got := s.Len(); got != keys {
				t.Fatalf("%d live keys after Reopen, want %d", got, keys)
			}
		})
	}

	// A burst opens its scope on two shards, the deployment grows to four
	// under it before its first mutation (a cut-over off a shard the burst's
	// transaction has written would wait for the seal), its PUTs land on
	// old and new shards alike, and shard 0's primary dies before the seal.
	// A key may read either side of the burst — but whole, and every key is
	// there.
	t.Run("grown-under-the-scope", func(t *testing.T) {
		c := newSharded(t, 2, quorum3(repro.Config{})).(*repro.Cluster)
		s, err := kv.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, keys)
		b := s.Burst()
		if _, err := b.Get(burstKey(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddShards(2); err != nil {
			t.Fatal(err)
		}
		if err := c.Rebalance(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys/2; i++ {
			if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CrashPrimary(); err != nil {
			t.Fatal(err)
		}
		if err := b.Seal(); !errors.Is(err, repro.ErrCrashed) {
			t.Fatalf("seal after shard 0's crash = %v, want ErrCrashed", err)
		}
		if err := c.Failover(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			got, err := s.Get(burstKey(i))
			old, burst := fmt.Sprintf("old%03d", i), fmt.Sprintf("new%03d", i)
			if err != nil || string(got) != old && (i >= keys/2 || string(got) != burst) {
				t.Errorf("key %d reads %q, %v; want %q or, from the burst, %q", i, got, err, old, burst)
			}
		}
		if got := s.Len(); got != keys {
			t.Fatalf("%d live keys after Reopen, want %d", got, keys)
		}
	})
}

// crashBeforeBegin is a deployment whose primary dies the instant before
// an armed Begin: the crash a racing CrashPrimary lands between a PUT's
// probe and its transaction, made deterministic.
type crashBeforeBegin struct {
	*repro.Cluster
	armed bool
}

func (d *crashBeforeBegin) Begin() (repro.Tx, error) {
	if d.armed {
		d.armed = false
		if err := d.CrashPrimary(); err != nil {
			return nil, err
		}
	}
	return d.Cluster.Begin()
}

// TestBurstDegradedSeal: backups lost mid-burst leave the seal short of
// its quorum. The writes are durable on the serving node, the index is
// right, the store is not broken — and the seal says so.
func TestBurstDegradedSeal(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{}))
	admin := db.(repro.Admin)
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 2)
	b := s.Burst()
	if err := b.Put(burstKey(0), []byte("new000")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := admin.CrashBackup(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Seal(); !errors.Is(err, repro.ErrSafetyUnavailable) {
		t.Fatalf("seal with one of three backups left = %v, want ErrSafetyUnavailable", err)
	}
	wantValues(t, s, 0, 1, "new")
	wantValues(t, s, 1, 2, "old")
}

// TestBurstTxn: a multi-key transaction joins a burst — its reads go
// through the burst, its commit is covered by the burst's seal.
func TestBurstTxn(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{Metrics: true}))
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 3)
	b0, t0 := commitCounters(db)
	b := s.Burst()
	if err := b.Put(burstKey(0), []byte("new000")); err != nil {
		t.Fatal(err)
	}
	txn, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := txn.Get(burstKey(0)); err != nil || string(got) != "new000" {
		t.Fatalf("txn.Get inside the burst = %q, %v", got, err)
	}
	if err := txn.Put(burstKey(1), []byte("new001")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(burstKey(2)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 2 {
		t.Fatalf("burst sealed %d batches for %d transactions, want 1 for 2", b1-b0, t1-t0)
	}
	wantValues(t, s, 0, 2, "new")
	if _, err := s.Get(burstKey(2)); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key reads %v, want ErrNotFound", err)
	}
}

// TestBurstMultiShardDefers: on four shards a burst defers too. Its PUTs
// commit nothing before Seal and one transaction in one batch per shard
// they touched at it, a Get of a written key inside the burst reads through
// the burst's transaction, not a routed read, and after the seal a backup
// serves it.
func TestBurstMultiShardDefers(t *testing.T) {
	c := newSharded(t, 4, quorum3(repro.Config{Metrics: true})).(*repro.Cluster)
	db := &servedBy{DB: c}
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 3)
	touched := map[int]bool{}
	for i := 0; i < 3; i++ {
		touched[shardOf(c, s, i)] = true
	}
	b0, t0 := commitCounters(c)
	b := s.Burst()
	for i := 0; i < 3; i++ {
		if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if b1, t1 := commitCounters(c); b1 != b0 || t1 != t0 {
		t.Fatalf("%d batches for %d transactions before the seal, want none", b1-b0, t1-t0)
	}
	db.last.Replica = -1
	if got, err := b.Get(burstKey(2)); err != nil || string(got) != "new002" || db.last.Replica != -1 {
		t.Fatalf("Get inside the burst = %q, %v, routed to %d; want the new value through the transaction", got, err, db.last.Replica)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(c); int(b1-b0) != len(touched) || int(t1-t0) != len(touched) {
		t.Fatalf("%d batches for %d transactions at the seal, want %d for %d", b1-b0, t1-t0, len(touched), len(touched))
	}
	if got, err := s.Get(burstKey(2)); err != nil || string(got) != "new002" || db.last.Replica == 0 {
		t.Fatalf("Get after the seal = %q, %v, served by %d; want a backup", got, err, db.last.Replica)
	}
	wantValues(t, s, 0, 3, "new")
}

// shardOf returns the shard that key i's region lives on now.
func shardOf(c *repro.Cluster, s *kv.Store, i int) int {
	r, _ := s.Place(burstKey(i))
	return c.ShardFor(r * c.PartSize())
}

// TestBurstDeploymentGrowsUnderIt: a burst that opened its scope on one
// shard finds four when its mutations run — the deployment grew between
// its first operation, a Get, and its first write. Its mutations share one
// transaction wherever their regions now live, so nothing commits before
// the seal; at it, each shard the transaction wrote commits once, the new
// ones outside the scope acknowledged at their commit, the scope's shard at
// its seal, and a Get after it is served by a backup.
func TestBurstDeploymentGrowsUnderIt(t *testing.T) {
	c := newCluster(t, quorum3(repro.Config{Metrics: true})).(*repro.Cluster)
	db := &servedBy{DB: c}
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	preload(t, s, keys)
	b := s.Burst()
	if _, err := b.Get(burstKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddShards(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	touched := map[int]bool{}
	b0, t0 := commitCounters(c)
	for i := 0; i < keys/2; i++ {
		if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
			t.Fatal(err)
		}
		touched[shardOf(c, s, i)] = true
	}
	if !touched[0] || len(touched) == 1 {
		t.Fatalf("the PUTs landed on shards %v; the test needs shard 0 and another", touched)
	}
	if b1, t1 := commitCounters(c); b1 != b0 || t1 != t0 {
		t.Fatalf("%d batches for %d transactions before the seal, want none", b1-b0, t1-t0)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(c); int(b1-b0) != len(touched) || int(t1-t0) != len(touched) {
		t.Fatalf("%d batches for %d transactions after the seal, want %d for %d", b1-b0, t1-t0, len(touched), len(touched))
	}
	if _, err := s.Get(burstKey(0)); err != nil || db.last.Replica == 0 {
		t.Fatalf("Get of a burst's key after the seal: %v, served by %d; want a backup", err, db.last.Replica)
	}
	wantValues(t, s, 0, keys/2, "new")
	wantValues(t, s, keys/2, keys, "old")
}

// TestBurstReadsItsOwnWrites: inside a burst, on one shard and on four,
// with every backup caught up to its primary's committed counter, so that
// a bound-0 lookup routed as outside a burst would be served by a backup
// holding the bytes from before the burst. A GET of a key the burst has
// overwritten returns the new value, and of one it inserted finds it; a
// second insert into the chain of the first probes past it, and after the
// seal both keys read back.
func TestBurstReadsItsOwnWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newSharded(t, shards, quorum3(repro.Config{})).(*repro.Cluster)
			db := &servedBy{DB: c}
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, 8)
			c.Settle()
			if _, err := s.Get(burstKey(0)); err != nil || db.last.Replica == 0 {
				t.Fatalf("Get before the burst: %v, served by %d; want a backup", err, db.last.Replica)
			}
			x, y := sameBucket(s)

			b := s.Burst()
			if err := b.Put(burstKey(0), []byte("new000")); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get(burstKey(0)); err != nil || string(got) != "new000" {
				t.Fatalf("Get of the burst's overwrite = %q, %v; want %q", got, err, "new000")
			}
			if err := b.Put(x, []byte("first")); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get(x); err != nil || string(got) != "first" {
				t.Fatalf("Get of the burst's insert = %q, %v; want %q", got, err, "first")
			}
			if err := b.Put(y, []byte("second")); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get(x); err != nil || string(got) != "first" {
				t.Fatalf("the first insert after the second = %q, %v; want %q", got, err, "first")
			}
			if err := b.Seal(); err != nil {
				t.Fatal(err)
			}
			for k, want := range map[string]string{string(burstKey(0)): "new000", string(x): "first", string(y): "second"} {
				if got, err := s.Get([]byte(k)); err != nil || string(got) != want {
					t.Errorf("%s after the seal = %q, %v; want %q", k, got, err, want)
				}
			}
			if got := s.Len(); got != 10 {
				t.Fatalf("%d live keys, want 10", got)
			}
		})
	}
}

// sameBucket returns two absent keys whose probes start at the same bucket.
func sameBucket(s *kv.Store) (x, y []byte) {
	seen := map[int][]byte{}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("ins%06d", i))
		_, b := s.Place(k)
		if prev, ok := seen[b]; ok {
			return prev, k
		}
		seen[b] = k
	}
}

// TestBurstCommitsPastTheUndoLimit: one burst whose inserts declare more
// undo images than the V3 engine's 1 MiB undo log holds commits as several
// transactions before its seal, and every key reads back after it.
func TestBurstCommitsPastTheUndoLimit(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{DBSize: 8 << 20, Metrics: true}))
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000 // each insert saves about 250 bytes of before-images
	val := bytes.Repeat([]byte{'v'}, 200)
	key := func(i int) []byte { return []byte(fmt.Sprintf("big%05d", i)) }
	_, t0 := commitCounters(db)
	b := s.Burst()
	for i := 0; i < n; i++ {
		if err := b.Put(key(i), val); err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
	}
	_, mid := commitCounters(db)
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, t1 := commitCounters(db); mid == t0 || t1-t0 < 2 {
		t.Fatalf("%d transactions before the seal and %d in all, want several", mid-t0, t1-t0)
	}
	for i := 0; i < n; i++ {
		if got, err := s.Get(key(i)); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("key %d reads %d bytes, %v", i, len(got), err)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("%d live keys, want %d", got, n)
	}
}
