package kv_test

import (
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
// back-to-back transactions under one seal, a Get inside the burst sees
// the burst's own write, and a direct Put afterwards is acknowledged per
// call as ever.
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
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 4 {
		t.Fatalf("burst sealed %d batches for %d transactions, want 1 for 4", b1-b0, t1-t0)
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

	// The crash lands between the second PUT's probe and its Begin, on a
	// deployment whose autopilot would promote a survivor at that Begin
	// without telling anyone — and the PUT, planned over state only the
	// dead primary had, would commit on a node that never saw the first.
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
		db.armed = true
		if err := b.Put(burstKey(1), []byte("new001")); !errors.Is(err, repro.ErrCrashed) {
			t.Fatalf("PUT whose Begin follows the crash = %v, want ErrCrashed", err)
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
	// loses its primary before the seal. Its commits die with it; the other
	// shard's seal still ships, so after the failover and Reopen those keys
	// read the burst's values and the dead shard's keys what they held
	// before it. In the degraded case the live shard is sealed first and
	// comes back short of its quorum: its ErrSafetyUnavailable must not
	// hide the later shard's crash, or the store would stay unbroken with
	// an index over the lost commits.
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
					sealed[i] = sh == tc.live
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

	// A burst opens on two shards, the deployment grows to four under it,
	// and a source shard's primary dies before the seal. The moves may have
	// carried the burst's unsealed writes off the dead shard, so a key may
	// read either side of the burst — but whole, and every key is there.
	t.Run("grown-under-the-scope", func(t *testing.T) {
		c := newSharded(t, 2, quorum3(repro.Config{})).(*repro.Cluster)
		s, err := kv.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, keys)
		b := s.Burst()
		put := func(from, to int) {
			for i := from; i < to; i++ {
				if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		put(0, 8)
		if _, err := c.AddShards(2); err != nil {
			t.Fatal(err)
		}
		if err := c.Rebalance(); err != nil {
			t.Fatal(err)
		}
		put(8, keys/2)
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
// seal no batch before Seal and one per shard they touched at it, a Get of
// a deferred key inside the burst finds the backups behind and reads the
// primary, and after the seal a backup serves it.
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
	if got, err := b.Get(burstKey(2)); err != nil || string(got) != "new002" || db.last.Replica != 0 {
		t.Fatalf("Get inside the burst = %q, %v, served by %d; want the new value from the primary", got, err, db.last.Replica)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(c); int(b1-b0) != len(touched) || t1-t0 != 3 {
		t.Fatalf("%d batches for %d transactions at the seal, want %d for 3", b1-b0, t1-t0, len(touched))
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
// shard finds four when its next mutations commit. A PUT is one
// transaction on one shard wherever its region now lives, so there is no
// order between groups to protect: PUTs that land on the old shard stay in
// the burst's scope, PUTs that land on a new one are acknowledged on their
// own, and the seal answers for the former.
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
	if err := b.Put(burstKey(0), []byte("new000")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddShards(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// Enough PUTs after the grow that some land on a shard the scope never
	// opened on.
	moved, stayed := 0, -1
	b0, t0 := commitCounters(c)
	for i := 1; i < keys/2; i++ {
		if err := b.Put(burstKey(i), []byte(fmt.Sprintf("new%03d", i))); err != nil {
			t.Fatal(err)
		}
		if shardOf(c, s, i) != 0 {
			moved++
		} else {
			stayed = i
		}
	}
	if stayed < 0 || moved == 0 {
		t.Fatalf("%d of %d PUTs landed off shard 0; the test needs some on either side", moved, keys/2-1)
	}
	// One transaction per PUT. Those off the scope's shard have each sealed
	// a batch of their own; the rest wait, with the PUT from before the
	// grow, for the burst's seal to ship them as one — so shard 0's backups
	// are behind its primary, which serves their keys until the seal.
	if b1, t1 := commitCounters(c); int(b1-b0) != moved || int(t1-t0) != moved {
		t.Fatalf("%d batches for %d transactions before the seal, want %d for %d", b1-b0, t1-t0, moved, moved)
	}
	if _, err := b.Get(burstKey(stayed)); err != nil || db.last.Replica != 0 {
		t.Fatalf("Get of a deferred key inside the burst: %v, served by %d; want the primary", err, db.last.Replica)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if b1, t1 := commitCounters(c); int(b1-b0) != moved+1 || int(t1-t0) != keys/2 {
		t.Fatalf("%d batches for %d transactions after the seal, want %d for %d", b1-b0, t1-t0, moved+1, keys/2)
	}
	if _, err := s.Get(burstKey(stayed)); err != nil || db.last.Replica == 0 {
		t.Fatalf("Get of the key after the seal: %v, served by %d; want a backup", err, db.last.Replica)
	}
	wantValues(t, s, 0, keys/2, "new")
	wantValues(t, s, keys/2, keys, "old")
}
