package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// newCluster builds a small replicated single-group deployment.
func newCluster(t testing.TB, cfg repro.Config) repro.DB {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 1 << 20
	}
	c, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newSharded(t testing.TB, shards int, cfg repro.Config) repro.DB {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 1 << 20
	}
	sc, err := repro.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// deployments returns the facade matrix the kv layer must behave
// identically on.
func deployments(t *testing.T) map[string]repro.DB {
	return map[string]repro.DB{
		"cluster":  newCluster(t, repro.Config{}),
		"sharded1": newSharded(t, 1, repro.Config{}),
		"sharded4": newSharded(t, 4, repro.Config{}),
	}
}

func TestPutGetDelete(t *testing.T) {
	for name, db := range deployments(t) {
		t.Run(name, func(t *testing.T) {
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("missing")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if err := s.Put([]byte("alice"), []byte("100")); err != nil {
				t.Fatal(err)
			}
			v, err := s.Get([]byte("alice"))
			if err != nil || string(v) != "100" {
				t.Fatalf("Get(alice) = %q, %v", v, err)
			}
			// Overwrite.
			if err := s.Put([]byte("alice"), []byte("250")); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get([]byte("alice")); string(v) != "250" {
				t.Fatalf("after overwrite Get = %q", v)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
			if err := s.Delete([]byte("alice")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("alice")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
			}
			if err := s.Delete([]byte("alice")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("double Delete = %v, want ErrNotFound", err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len after delete = %d", s.Len())
			}
		})
	}
}

func TestValidation(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(nil, []byte("v")); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("empty key Put = %v", err)
	}
	if _, err := s.Get(nil); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("empty key Get = %v", err)
	}
	big := make([]byte, s.SlotPayload()+1)
	if err := s.Put([]byte("k"), big[:len(big)-1]); !errors.Is(err, kv.ErrTooLarge) {
		t.Fatalf("oversized Put (key+val) = %v", err)
	}
	// Exactly at the payload bound fits.
	if err := s.Put(big[:8], big[8:s.SlotPayload()]); err != nil {
		t.Fatalf("payload-sized Put = %v", err)
	}
}

func TestManyKeysAndReopen(t *testing.T) {
	db := newCluster(t, repro.Config{DBSize: 1 << 20})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i*7)) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Delete a third, overwrite a third.
	for i := 0; i < n; i += 3 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	for i := 1; i < n; i += 3 {
		if err := s.Put(key(i), []byte("updated")); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}

	verify := func(s *kv.Store) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, err := s.Get(key(i))
			switch {
			case i%3 == 0:
				if !errors.Is(err, kv.ErrNotFound) {
					t.Fatalf("deleted key %d: got %q, %v", i, v, err)
				}
			case i%3 == 1:
				if err != nil || string(v) != "updated" {
					t.Fatalf("overwritten key %d: got %q, %v", i, v, err)
				}
			default:
				if err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d: got %q, %v", i, v, err)
				}
			}
		}
	}
	verify(s)
	want := s.Len()

	// Reopen over the same bytes: the index is recovered, not recreated.
	s2, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != want {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), want)
	}
	verify(s2)
}

func TestTombstoneReuse(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{DBSize: 256 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	// Churn far more operations than the store has slots: deletes must
	// free slots and inserts must reuse tombstoned buckets.
	slots := s.Slots()
	for i := 0; i < 4*slots; i++ {
		k := []byte(fmt.Sprintf("churn%05d", i))
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatalf("Put %d (slots=%d): %v", i, slots, err)
		}
		if err := s.Delete(k); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after churn = %d", s.Len())
	}
}

// TestFull: a region fills on its own. Inserts take slots from their key's
// region and nowhere else, so ErrFull arrives with the store as a whole far
// from full; an overwrite rewrites its record in place and needs no slot.
func TestFull(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{DBSize: 64 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, slots := s.Geometry()
	const region = 3
	// in yields fresh keys of the region (want) or of any other.
	next := 0
	in := func(want bool) []byte {
		for {
			k := []byte(fmt.Sprintf("fill%06d", next))
			next++
			if r, _ := s.Place(k); (r == region) == want {
				return k
			}
		}
	}
	val := bytes.Repeat([]byte("v"), 100)
	var keys [][]byte
	for i := 0; i < slots; i++ {
		keys = append(keys, in(true))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatalf("insert %d of %d into the region: %v", i, slots, err)
		}
	}
	if err := s.Put(in(true), val); !errors.Is(err, kv.ErrFull) {
		t.Fatalf("insert into the full region = %v, want ErrFull", err)
	}
	if s.Len() != slots || s.Len() >= s.Slots() {
		t.Fatalf("Len %d, Slots %d: the region's %d slots should be the only ones taken", s.Len(), s.Slots(), slots)
	}
	// The other regions are unaffected.
	if err := s.Put(in(false), val); err != nil {
		t.Fatalf("insert into another region: %v", err)
	}
	// An overwrite in the full region succeeds, whatever the new length.
	for _, v := range [][]byte{bytes.Repeat([]byte("w"), 100), []byte("short"), bytes.Repeat([]byte("x"), 200)} {
		if err := s.Put(keys[0], v); err != nil {
			t.Fatalf("overwrite in the full region (%d bytes): %v", len(v), err)
		}
		if got, err := s.Get(keys[0]); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("overwritten key reads %q, %v", got, err)
		}
	}
	// One delete admits exactly one insert.
	if err := s.Delete(keys[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(in(true), val); err != nil {
		t.Fatalf("insert after a delete: %v", err)
	}
	if err := s.Put(in(true), val); !errors.Is(err, kv.ErrFull) {
		t.Fatalf("second insert after one delete = %v, want ErrFull", err)
	}
	// A transaction that needs a slot the region does not have applies
	// nothing, its keys in other regions included.
	txn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := in(false)
	txn.Put(elsewhere, val)
	txn.Put(in(true), val)
	if err := txn.Commit(); !errors.Is(err, kv.ErrFull) {
		t.Fatalf("txn with an insert into the full region = %v, want ErrFull", err)
	}
	if _, err := s.Get(elsewhere); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("a key of the refused txn reads %v, want ErrNotFound", err)
	}
	if s.Len() != slots+1 {
		t.Fatalf("Len %d after the refused txn, want %d", s.Len(), slots+1)
	}
}

func TestScan(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("scan%03d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A full scan visits every live entry exactly once.
	got := map[string]string{}
	n, err := s.Scan(nil, 1<<30, func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("scan visited %d entries (%d distinct), want %d", n, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan[%s] = %q, want %q", k, got[k], v)
		}
	}
	// A bounded scan from a seed key visits exactly limit entries.
	n, err = s.Scan([]byte("scan010"), 5, func(k, v []byte) error { return nil })
	if err != nil || n != 5 {
		t.Fatalf("bounded scan = %d, %v", n, err)
	}
	// A callback error stops the scan.
	stop := errors.New("stop")
	n, err = s.Scan(nil, 1<<30, func(k, v []byte) error { return stop })
	if !errors.Is(err, stop) || n != 1 {
		t.Fatalf("aborted scan = %d, %v", n, err)
	}
}

func TestTxn(t *testing.T) {
	for name, db := range deployments(t) {
		t.Run(name, func(t *testing.T) {
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}

			// Buffered reads-your-writes, delete shadowing, abort.
			txn, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Put([]byte("b"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if v, err := txn.Get([]byte("b")); err != nil || string(v) != "2" {
				t.Fatalf("txn read-your-write = %q, %v", v, err)
			}
			if err := txn.Delete([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("txn shadowed delete Get = %v", err)
			}
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("b")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatal("aborted txn leaked a write")
			}
			if v, _ := s.Get([]byte("a")); string(v) != "1" {
				t.Fatal("aborted txn leaked a delete")
			}

			// Commit applies everything: puts, an overwrite, a delete,
			// and a delete of an absent key (no-op).
			txn, err = s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := txn.Put([]byte(fmt.Sprintf("t%02d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Put([]byte("a"), []byte("overwritten")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Delete([]byte("absent")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get([]byte("a")); string(v) != "overwritten" {
				t.Fatalf("txn overwrite lost: %q", v)
			}
			for i := 0; i < 20; i++ {
				if v, err := s.Get([]byte(fmt.Sprintf("t%02d", i))); err != nil || string(v) != "v" {
					t.Fatalf("txn put t%02d = %q, %v", i, v, err)
				}
			}
			if err := txn.Commit(); !errors.Is(err, kv.ErrTxnDone) {
				t.Fatalf("double commit = %v", err)
			}

			// Put-then-delete of the same key inside one txn: latest wins.
			txn, _ = s.Begin()
			txn.Put([]byte("ephemeral"), []byte("x"))
			txn.Delete([]byte("ephemeral"))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("ephemeral")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatal("put-then-delete left the key behind")
			}
		})
	}
}

// TestTxnKeysShareChains: a transaction's keys are probed through the
// transaction itself, so a key sees the buckets the keys before it took —
// in tables this small most chains are shared — and a slot a delete of the
// same transaction vacates is not handed out before the commit.
func TestTxnKeysShareChains(t *testing.T) {
	for name, db := range map[string]repro.DB{
		"cluster":  newCluster(t, repro.Config{DBSize: 128 << 10}),
		"sharded4": newSharded(t, 4, repro.Config{DBSize: 256 << 10}),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			_, buckets, _ := s.Geometry()
			const n = 120
			key := func(i int) []byte { return []byte(fmt.Sprintf("chain%04d", i)) }
			txn, _ := s.Begin()
			for i := 0; i < n; i++ {
				txn.Put(key(i), []byte(fmt.Sprintf("first%04d", i)))
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit of %d inserts into regions of %d buckets: %v", n, buckets, err)
			}
			// Delete the even keys, overwrite the odd ones, insert more.
			txn, _ = s.Begin()
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					txn.Delete(key(i))
				} else {
					txn.Put(key(i), []byte("second"))
				}
			}
			for i := n; i < n+n/4; i++ {
				txn.Put(key(i), []byte("late"))
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			verify := func(s *kv.Store) {
				t.Helper()
				if want := n/2 + n/4; s.Len() != want {
					t.Fatalf("Len = %d, want %d", s.Len(), want)
				}
				for i := 0; i < n+n/4; i++ {
					got, err := s.Get(key(i))
					switch {
					case i >= n:
						if err != nil || string(got) != "late" {
							t.Fatalf("key %d reads %q, %v", i, got, err)
						}
					case i%2 == 0:
						if !errors.Is(err, kv.ErrNotFound) {
							t.Fatalf("deleted key %d reads %q, %v", i, got, err)
						}
					default:
						if err != nil || string(got) != "second" {
							t.Fatalf("key %d reads %q, %v", i, got, err)
						}
					}
				}
			}
			verify(s)
			reopened, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			verify(reopened)
		})
	}
}

// bigTxn buffers n inserts of 200-byte values in a transaction of s or of
// b, when b is not nil.
func bigTxn(t *testing.T, s *kv.Store, b *kv.Burst, n int) *kv.Txn {
	t.Helper()
	begin := s.Begin
	if b != nil {
		begin = b.Begin
	}
	txn, err := begin()
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 200)
	for i := 0; i < n; i++ {
		if err := txn.Put([]byte(fmt.Sprintf("big%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	return txn
}

// TestTxnIsNeverSplit: a transaction whose undo images pass the share a
// burst commits early at, but fit the engine's log, commits as exactly one
// DB transaction and reads back whole.
func TestTxnIsNeverSplit(t *testing.T) {
	db := newCluster(t, quorum3(repro.Config{DBSize: 8 << 20, Metrics: true}))
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000 // about 250 bytes of before-images each: twice the share
	txn := bigTxn(t, s, nil, n)
	_, t0 := commitCounters(db)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, t1 := commitCounters(db); t1-t0 != 1 {
		t.Fatalf("a %d-key Txn committed as %d transactions, want 1", n, t1-t0)
	}
	for i := 0; i < n; i++ {
		if got, err := s.Get([]byte(fmt.Sprintf("big%05d", i))); err != nil || len(got) != 200 {
			t.Fatalf("key %d reads %d bytes, %v", i, len(got), err)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("%d live keys, want %d", got, n)
	}
}

// TestTxnFailureKeepsTheStore: a transaction the engine refuses — its undo
// images overflow the V3 log, or an insert meets a full region — applies
// none of its keys and reports the failure itself. It does not break the
// store, and inside a burst it takes back none of the burst's own writes.
func TestTxnFailureKeepsTheStore(t *testing.T) {
	t.Run("undo-log-full", func(t *testing.T) {
		s, err := kv.Open(newCluster(t, repro.Config{DBSize: 8 << 20}))
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, 3)
		if err := bigTxn(t, s, nil, 6000).Commit(); !errors.Is(err, repro.ErrUndoFull) {
			t.Fatalf("6000-key Txn = %v, want ErrUndoFull", err)
		}
		if _, err := s.Get([]byte("big00000")); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("a key of the refused Txn reads %v, want ErrNotFound", err)
		}
		if got := s.Len(); got != 3 {
			t.Fatalf("%d live keys after the refused Txn, want 3", got)
		}
		if err := s.Put(burstKey(3), []byte("old003")); err != nil {
			t.Fatalf("PUT after the refused Txn: %v", err)
		}
		wantValues(t, s, 0, 4, "old")
	})
	t.Run("undo-log-full-in-a-burst", func(t *testing.T) {
		s, err := kv.Open(newCluster(t, repro.Config{DBSize: 8 << 20}))
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, 2)
		b := s.Burst()
		if err := b.Put(burstKey(0), []byte("new000")); err != nil {
			t.Fatal(err)
		}
		if err := bigTxn(t, s, b, 6000).Commit(); !errors.Is(err, repro.ErrUndoFull) {
			t.Fatalf("6000-key Txn in a burst = %v, want ErrUndoFull", err)
		}
		if err := b.Put(burstKey(1), []byte("new001")); err != nil {
			t.Fatalf("burst PUT after the refused Txn: %v", err)
		}
		if err := b.Seal(); err != nil {
			t.Fatalf("seal after a refused Txn = %v, want nil", err)
		}
		wantValues(t, s, 0, 2, "new")
		if got := s.Len(); got != 2 {
			t.Fatalf("%d live keys after the burst, want 2", got)
		}
	})
	t.Run("full-region-in-a-burst", func(t *testing.T) {
		s, err := kv.Open(newCluster(t, repro.Config{DBSize: 64 << 10}))
		if err != nil {
			t.Fatal(err)
		}
		preload(t, s, 1)
		// Fill the last region: the key it refuses is the Txn's insert,
		// after a key of region 0 the Txn stages first.
		regions, _, _ := s.Geometry()
		var low, extra []byte
		for i := 0; low == nil || extra == nil; i++ {
			k := []byte(fmt.Sprintf("fill%06d", i))
			switch r, _ := s.Place(k); {
			case r == 0 && low == nil:
				low = k
			case r == regions-1 && extra == nil:
				if err := s.Put(k, []byte("v")); errors.Is(err, kv.ErrFull) {
					extra = k
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		n := s.Len()
		b := s.Burst()
		if err := b.Put(burstKey(0), []byte("new000")); err != nil {
			t.Fatal(err)
		}
		txn, err := b.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txn.Put(low, []byte("v"))
		txn.Put(extra, []byte("v"))
		if err := txn.Commit(); !errors.Is(err, kv.ErrFull) {
			t.Fatalf("Txn inserting into a full region = %v, want ErrFull", err)
		}
		if err := b.Seal(); err != nil {
			t.Fatalf("seal after a refused Txn = %v, want nil", err)
		}
		wantValues(t, s, 0, 1, "new")
		for _, k := range [][]byte{low, extra} {
			if _, err := s.Get(k); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("a key of the refused Txn reads %v, want ErrNotFound", err)
			}
		}
		if got := s.Len(); got != n {
			t.Fatalf("%d live keys, want %d", got, n)
		}
	})
}

func TestOpenRejectsGarbage(t *testing.T) {
	db := newCluster(t, repro.Config{})
	if err := db.Load(0, []byte("this is not a kv store header, clearly")); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Open(db); !errors.Is(err, kv.ErrBadFormat) {
		t.Fatalf("Open over garbage = %v, want ErrBadFormat", err)
	}
}

func TestTooSmall(t *testing.T) {
	// 8 KB cannot hold the minimum geometry at a huge slot size.
	db := newCluster(t, repro.Config{DBSize: 8 << 10})
	if _, err := kv.OpenWith(db, kv.Options{SlotSize: 8 << 10}); !errors.Is(err, kv.ErrTooSmall) {
		t.Fatalf("Open on tiny db = %v, want ErrTooSmall", err)
	}
}

// TestBrokenAfterObservedCrash: once any operation sees the deployment
// crashed, the Store refuses further work with ErrBroken — its free list
// may be ahead of the survivor's bytes — until a fresh Open.
func TestBrokenAfterObservedCrash(t *testing.T) {
	db := newCluster(t, repro.Config{Backups: 1})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Settle() // close the 1-safe window so the crash loses nothing
	admin := db.(repro.Admin)
	if err := admin.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Get on crashed deployment = %v", err)
	}
	if err := admin.Failover(); err != nil {
		t.Fatal(err)
	}
	// The old handle stays broken even though the deployment serves
	// again; a fresh Open recovers.
	if err := s.Put([]byte("k2"), []byte("v2")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Put on broken store = %v", err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Get on broken store = %v", err)
	}
	s2, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("reopened Get = %q, %v", v, err)
	}
}

// TestSameLengthOverwriteShipsTheValue: an overwrite that keeps the value's
// length writes no header or key — "first" → "again" changes every byte,
// so the modified bytes shipped grow by exactly its length — while one
// that changes it rewrites the whole record; both keys read back whole
// after a crash, a failover and Reopen.
func TestSameLengthOverwriteShipsTheValue(t *testing.T) {
	db := newCluster(t, repro.Config{Backups: 3, Safety: repro.QuorumSafe})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	put := func(key, val string) int64 {
		t.Helper()
		before := db.NetTraffic().ModifiedBytes
		if err := s.Put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		return db.NetTraffic().ModifiedBytes - before
	}
	put("same", "first")
	put("other", "first")
	if got := put("same", "again"); got != 5 {
		t.Fatalf("same-length overwrite shipped %d modified bytes, want the value's 5", got)
	}
	if got, want := put("other", "much longer"), int64(8+len("other")+len("much longer")); got != want {
		t.Fatalf("overwrite to a new length shipped %d modified bytes, want the record's %d", got, want)
	}
	admin := db.(repro.Admin)
	if err := admin.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := admin.Failover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"same": "again", "other": "much longer"} {
		if v, err := s.Get([]byte(key)); err != nil || string(v) != want {
			t.Fatalf("%s after failover reads %q, %v; want %q", key, v, err, want)
		}
	}
}

// TestOverwriteShipsChangedBytes: a same-length overwrite ships the range
// from the first byte it changes to the last, wherever that range lies, on
// one shard and on four at quorum. An identical value ships nothing and
// still commits. A Txn compares its key's last buffered value with the
// store's; a Burst compares a PUT with the unsealed PUT before it.
func TestOverwriteShipsChangedBytes(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) repro.DB{
		"one-shard":   func(t *testing.T) repro.DB { return newCluster(t, quorum3(repro.Config{Metrics: true})) },
		"four-shards": func(t *testing.T) repro.DB { return newSharded(t, 4, quorum3(repro.Config{Metrics: true})) },
	} {
		t.Run(name, func(t *testing.T) {
			db := mk(t)
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			base := []byte("the quick brown fox jumps over it")
			n := len(base)
			// changed returns base with every byte of [from, to) altered.
			changed := func(from, to int) []byte {
				v := bytes.Clone(base)
				for i := from; i < to; i++ {
					v[i] ^= 0xff
				}
				return v
			}
			// shipped runs do against a key holding base and returns the
			// modified bytes it shipped and the transactions it committed.
			shipped := func(key string, do func() error) (int64, uint64) {
				t.Helper()
				if err := s.Put([]byte(key), base); err != nil {
					t.Fatal(err)
				}
				bytes0, txns0 := db.NetTraffic().ModifiedBytes, db.Metrics().Counter("repl.commit.txns")
				if err := do(); err != nil {
					t.Fatal(err)
				}
				return db.NetTraffic().ModifiedBytes - bytes0, db.Metrics().Counter("repl.commit.txns") - txns0
			}
			readsBack := func(key string, want []byte) {
				t.Helper()
				if got, err := s.Get([]byte(key)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s reads %q, %v; want %q", key, got, err, want)
				}
			}
			for _, tc := range []struct {
				name     string
				from, to int
			}{
				{"start", 0, 3}, {"middle", 10, 14}, {"end", n - 2, n}, {"whole", 0, n}, {"identical", 0, 0},
			} {
				val := changed(tc.from, tc.to)
				got, txns := shipped(tc.name, func() error { return s.Put([]byte(tc.name), val) })
				if want := int64(tc.to - tc.from); got != want || txns != 1 {
					t.Errorf("%s: overwrite shipped %d modified bytes in %d commits, want %d in 1", tc.name, got, txns, want)
				}
				readsBack(tc.name, val)
			}

			got, _ := shipped("txn", func() error {
				txn, err := s.Begin()
				if err != nil {
					return err
				}
				if err := txn.Put([]byte("txn"), changed(0, n)); err != nil {
					return err
				}
				if err := txn.Put([]byte("txn"), changed(5, 9)); err != nil {
					return err
				}
				return txn.Commit()
			})
			if got != 4 {
				t.Errorf("a Txn's second PUT of a key shipped %d modified bytes, want the 4 it changes in the store", got)
			}
			readsBack("txn", changed(5, 9))

			b := s.Burst()
			got, _ = shipped("burst", func() error {
				if err := b.Put([]byte("burst"), changed(5, 9)); err != nil {
					return err
				}
				if err := b.Put([]byte("burst"), changed(5, 12)); err != nil {
					return err
				}
				return b.Seal()
			})
			if got != 4+3 {
				t.Errorf("a Burst's two PUTs of a key shipped %d modified bytes, want 4 and then the 3 the second changes", got)
			}
			readsBack("burst", changed(5, 12))
		})
	}
}

// TestCrashFailoverRecovery is the deterministic core of the committed-
// prefix guarantee at key level: acked puts at quorum survive a primary
// crash, failover, and re-Open.
func TestCrashFailoverRecovery(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) repro.DB{
		"cluster": func(t *testing.T) repro.DB { return newCluster(t, repro.Config{Backups: 2, Safety: repro.QuorumSafe}) },
		"sharded4": func(t *testing.T) repro.DB {
			return newSharded(t, 4, repro.Config{Backups: 2, Safety: repro.QuorumSafe})
		},
	} {
		t.Run(name, func(t *testing.T) {
			db := mk(t)
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			admin := db.(repro.Admin)
			for shard := 0; shard < db.Shards(); shard++ {
				if err := admin.Shard(shard).CrashPrimary(); err != nil {
					t.Fatal(err)
				}
				if err := admin.Shard(shard).Failover(); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Len() != n {
				t.Fatalf("recovered Len = %d, want %d", s2.Len(), n)
			}
			for i := 0; i < n; i++ {
				v, err := s2.Get([]byte(fmt.Sprintf("k%05d", i)))
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("recovered Get k%05d = %q, %v", i, v, err)
				}
			}
		})
	}
}
