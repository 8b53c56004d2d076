package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro"
	"repro/kv"
)

// servedBy is a deployment that remembers who served its routed reads: the
// last ReadAt's result, and how many a backup served.
type servedBy struct {
	repro.DB
	last    repro.ReadResult
	backups int
}

func (d *servedBy) ReadAt(off int, dst []byte, opts repro.ReadOpts) (repro.ReadResult, error) {
	res, err := d.DB.ReadAt(off, dst, opts)
	if err == nil {
		d.last = res
		if res.Replica > 0 {
			d.backups++
		}
	}
	return res, err
}

// onThePrimary is a deployment whose routed reads all go to the primary,
// whatever they ask for: a store over it reads as Get did before backups
// served the primary's view.
type onThePrimary struct{ repro.DB }

func (d onThePrimary) ReadAt(off int, dst []byte, _ repro.ReadOpts) (repro.ReadResult, error) {
	return d.DB.ReadAt(off, dst, repro.ReadOpts{})
}

// TestPrimaryViewReadsMatchThePrimary is the property behind serving Get
// from the backups: random Puts, Deletes, Gets and Scans, in and out of
// bursts, on one shard and on four, and every lookup returns what a shadow
// map holds and what a primary-pinned read of the same bytes returns —
// while backups serve some of them.
func TestPrimaryViewReadsMatchThePrimary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := &servedBy{DB: newSharded(t, shards, quorum3(repro.Config{}))}
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			pinned, err := kv.Open(onThePrimary{db.DB})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewPCG(uint64(shards), 36))
			shadow := map[string]string{}
			key := func() string { return fmt.Sprintf("key%03d", r.IntN(96)) }
			lookup := func(k string, got []byte, err error) {
				t.Helper()
				want, ok := shadow[k]
				if ok && (err != nil || string(got) != want) || !ok && !errors.Is(err, kv.ErrNotFound) {
					t.Fatalf("%s: got %q, %v; the shadow holds %q (present %v)", k, got, err, want, ok)
				}
				if pin, perr := pinned.Get([]byte(k)); !bytes.Equal(pin, got) || (perr == nil) != (err == nil) {
					t.Fatalf("%s: got %q, %v; the primary reads %q, %v", k, got, err, pin, perr)
				}
			}
			mutate := func(put func(k, v []byte) error, del func(k []byte) error) {
				t.Helper()
				k := key()
				if r.IntN(4) == 0 {
					err := del([]byte(k))
					if _, ok := shadow[k]; ok != (err == nil) {
						t.Fatalf("delete %s: %v, present %v", k, err, ok)
					}
					delete(shadow, k)
					return
				}
				v := fmt.Sprintf("v%d-%s", r.IntN(1<<20), bytes.Repeat([]byte("x"), r.IntN(60)))
				if err := put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				shadow[k] = v
			}
			scan := func() {
				t.Helper()
				type entry struct{ k, v string }
				collect := func(st *kv.Store, start []byte) []entry {
					var out []entry
					if _, err := st.Scan(start, 8, func(k, v []byte) error {
						out = append(out, entry{string(k), string(v)})
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					return out
				}
				start := []byte(key())
				got, pin := collect(s, start), collect(pinned, start)
				if fmt.Sprint(got) != fmt.Sprint(pin) {
					t.Fatalf("scan from %s: %v; the primary reads %v", start, got, pin)
				}
				for _, e := range got {
					if shadow[e.k] != e.v {
						t.Fatalf("scan entry %s = %q; the shadow holds %q", e.k, e.v, shadow[e.k])
					}
				}
			}
			for op := 0; op < 2000; op++ {
				switch n := r.IntN(10); {
				case n == 0:
					b := s.Burst()
					for i := r.IntN(8); i >= 0; i-- {
						if r.IntN(2) == 0 {
							mutate(b.Put, b.Delete)
							continue
						}
						k := key()
						got, err := b.Get([]byte(k))
						lookup(k, got, err)
					}
					if err := b.Seal(); err != nil {
						t.Fatal(err)
					}
				case n < 3:
					mutate(s.Put, s.Delete)
				case n < 4:
					scan()
				default:
					k := key()
					got, err := s.Get([]byte(k))
					lookup(k, got, err)
				}
			}
			if db.backups == 0 {
				t.Fatal("no lookup was served by a backup")
			}
		})
	}
}

// TestBurstGetAfterDeferredPutReadsThePrimary: a burst's Put is written
// into the burst's open transaction on the primary. The primary's committed
// counter has not moved, so a backup at it would pass the bound-0 check
// with the bytes from before the burst; the burst's Get of the same key
// reads through the transaction instead, no routed read — the primary's
// bytes, with the new value.
func TestBurstGetAfterDeferredPutReadsThePrimary(t *testing.T) {
	db := &servedBy{DB: newCluster(t, quorum3(repro.Config{Metrics: true}))}
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	preload(t, s, 4)
	if got, err := s.Get(burstKey(2)); err != nil || string(got) != "old002" || db.last.Replica == 0 {
		t.Fatalf("Get after acknowledged Puts = %q, %v, served by %d; want a backup", got, err, db.last.Replica)
	}
	b0, _ := commitCounters(db)
	b := s.Burst()
	if err := b.Put(burstKey(2), []byte("new002")); err != nil {
		t.Fatal(err)
	}
	if b1, _ := commitCounters(db); b1 != b0 {
		t.Fatalf("the burst's Put sealed %d batches before the burst's seal", b1-b0)
	}
	db.last.Replica = -1
	if got, err := b.Get(burstKey(2)); err != nil || string(got) != "new002" || db.last.Replica != -1 {
		t.Fatalf("burst Get after its deferred Put = %q, %v, routed to %d; want the new value through the transaction", got, err, db.last.Replica)
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(burstKey(2)); err != nil || string(got) != "new002" || db.last.Replica == 0 {
		t.Fatalf("Get after the seal = %q, %v, served by %d; want a backup", got, err, db.last.Replica)
	}
}

// TestPrimaryViewReadsRouteAroundFailover: a failover re-enrols the
// survivors it resynced into the new membership epoch, so with K=3 backups
// serve again at once; with K=1 the only survivor is the new primary and
// the old one is a crashed member, so lookups go to the primary until
// Repair re-joins it, and to it after that. Every lookup reads what was
// acknowledged.
func TestPrimaryViewReadsRouteAroundFailover(t *testing.T) {
	for name, cfg := range map[string]repro.Config{
		"K=3": quorum3(repro.Config{}),
		"K=1": {Backups: 1},
	} {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, cfg).(*repro.Cluster)
			db := &servedBy{DB: c}
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, 8)
			c.Settle()
			served := func(when string, backup bool) {
				t.Helper()
				for i := 0; i < 8; i++ {
					got, err := s.Get(burstKey(i))
					if err != nil || string(got) != fmt.Sprintf("old%03d", i) {
						t.Fatalf("%s: key %d = %q, %v", when, i, got, err)
					}
					if (db.last.Replica > 0) != backup {
						t.Fatalf("%s: key %d served by %d; want a backup: %v", when, i, db.last.Replica, backup)
					}
				}
			}
			served("before the crash", true)
			if err := c.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(burstKey(0)); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Get on a dead primary = %v, want ErrCrashed", err)
			}
			if err := c.Failover(); err != nil {
				t.Fatal(err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			served("after the failover", cfg.Backups > 1)
			if err := c.Repair(); err != nil {
				t.Fatal(err)
			}
			served("after the repair", true)
		})
	}
}

// TestPrimaryViewReadsFallBackToThePrimary: a passive backup's copy is torn
// mid-transaction, a standalone deployment has no backup, and a 1-safe
// commit leaves its pointer lingering in the primary's write buffer, so
// the backups have not applied what the primary committed: in each the
// primary serves the lookup.
func TestPrimaryViewReadsFallBackToThePrimary(t *testing.T) {
	for name, cfg := range map[string]repro.Config{
		"passive":    {Backup: repro.PassiveBackup, Backups: 1},
		"standalone": {Backup: repro.Standalone},
		"1-safe":     {Backup: repro.ActiveBackup, Backups: 2, Safety: repro.OneSafe},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Version, cfg.DBSize = repro.V3InlineLog, 1<<20
			c, err := repro.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db := &servedBy{DB: c}
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			preload(t, s, 8)
			for i := 0; i < 8; i++ {
				if got, err := s.Get(burstKey(i)); err != nil || string(got) != fmt.Sprintf("old%03d", i) || db.last.Replica != 0 {
					t.Fatalf("key %d = %q, %v, served by %d; want the primary", i, got, err, db.last.Replica)
				}
			}
			if db.backups != 0 {
				t.Fatalf("backups served %d reads", db.backups)
			}
		})
	}
}
