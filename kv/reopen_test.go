package kv_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/kv"
)

// TestScanReentrant: the Scan callback runs outside the store's lock, so
// it may call back into the Store — the scan-and-get pattern of a read
// path that joins related records — without deadlocking. (Before the
// fix, fn ran under s.mu and any re-entrant call hung forever.)
func TestScanReentrant(t *testing.T) {
	db := newCluster(t, repro.Config{})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			n, err := s.Scan(nil, 10, func(key, value []byte) error {
				// Re-enter the store from inside the callback: a Get of
				// the entry just delivered, a Put of a side record, and
				// a nested Scan.
				got, err := s.Get(key)
				if err != nil {
					return fmt.Errorf("re-entrant Get(%q): %w", key, err)
				}
				if string(got) != string(value) {
					return fmt.Errorf("re-entrant Get(%q) = %q, want %q", key, got, value)
				}
				if err := s.Put(append([]byte("seen-"), key...), value); err != nil {
					return fmt.Errorf("re-entrant Put: %w", err)
				}
				if _, err := s.Scan(key, 2, func(_, _ []byte) error { return nil }); err != nil {
					return fmt.Errorf("re-entrant Scan: %w", err)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if n != 10 {
				return fmt.Errorf("scan visited %d entries, want 10", n)
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("re-entrant Scan deadlocked (callback invoked under the store lock)")
	}

	// The staged snapshot delivered entries that existed at scan time;
	// the re-entrant Puts are visible afterwards.
	if _, err := s.Get([]byte("seen-k00")); err != nil && !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("post-scan Get: %v", err)
	}
}

// TestScanCallbackError: a failing callback stops delivery and reports
// the number of entries delivered, error included.
func TestScanCallbackError(t *testing.T) {
	db := newCluster(t, repro.Config{})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	calls := 0
	n, err := s.Scan(nil, 8, func(_, _ []byte) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 || calls != 3 {
		t.Fatalf("delivered %d entries over %d calls, want 3", n, calls)
	}
}

// TestReopenAfterFailover: a Store broken by a primary crash heals in
// place — crash, manual failover, Reopen — with every acknowledged Put
// readable and the handle writable again, no new Open required.
func TestReopenAfterFailover(t *testing.T) {
	// K=3 at quorum needs 2 backup acks, so the group keeps its safety
	// level through the loss of the primary (2 backups survive the
	// failover) and Reopen can heal without a Repair first.
	db := newCluster(t, repro.Config{Backups: 3, Safety: repro.QuorumSafe})
	admin := db.(repro.Admin)
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const acked = 300
	for i := 0; i < acked; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	// The crash surfaces on the next operation; the store breaks.
	if err := s.Put([]byte("post-crash"), []byte("x")); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Put on a dead primary = %v, want ErrCrashed", err)
	}
	if _, err := s.Get([]byte("key0000")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Get on a broken store = %v, want ErrBroken", err)
	}
	// Reopen before the failover fails and leaves the store broken.
	if err := s.Reopen(); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Reopen before failover = %v, want ErrCrashed", err)
	}
	if _, err := s.Get([]byte("key0000")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("store healed without a failover: %v", err)
	}

	if err := admin.Failover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen after failover: %v", err)
	}
	if s.Len() != acked {
		t.Fatalf("reopened store has %d live keys, want %d", s.Len(), acked)
	}
	for i := 0; i < acked; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%04d", i) {
			t.Fatalf("acked key %d after Reopen: %q, %v", i, v, err)
		}
	}
	// The healed handle serves writes.
	if err := s.Put([]byte("after-heal"), []byte("y")); err != nil {
		t.Fatalf("Put after Reopen: %v", err)
	}
}

// TestReopenAutopilot: with AutoFailover configured, Reopen's admission
// probe itself triggers the unattended takeover — no manual Failover
// call anywhere.
func TestReopenAutopilot(t *testing.T) {
	db := newCluster(t, repro.Config{
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 500 * time.Microsecond,
			AutoFailover:    true,
		},
	})
	admin := db.(repro.Admin)
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const acked = 200
	for i := 0; i < acked; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("post-crash"), []byte("x")); err == nil {
		t.Fatal("Put on a dead primary succeeded")
	}
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen with autopilot: %v", err)
	}
	for i := 0; i < acked; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%04d", i) {
			t.Fatalf("acked key %d after autopilot Reopen: %q, %v", i, v, err)
		}
	}
	if err := s.Put([]byte("after-heal"), []byte("y")); err != nil {
		t.Fatalf("Put after autopilot Reopen: %v", err)
	}
}

// TestReopenAssignsNoGeometry is the race detector's probe of a Store
// documented safe for concurrent use: Slots, Buckets, SlotPayload and
// Txn.Put read the geometry without the lock, which is sound only because
// nothing assigns it after Open — Reopen checks the persisted header
// against it and leaves it alone. (It used to re-adopt the header under the
// lock, a write racing every one of those reads.)
func TestReopenAssignsNoGeometry(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	slots, buckets, payload := s.Slots(), s.Buckets(), s.SlotPayload()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.Reopen(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if s.Slots() != slots || s.Buckets() != buckets || s.SlotPayload() != payload {
			t.Fatal("geometry changed under an open store")
		}
		txn, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put([]byte("k"), make([]byte, payload-1)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenRejectsAnotherGeometry: the header under an open store is
// compared, not adopted.
func TestReopenRejectsAnotherGeometry(t *testing.T) {
	db := newCluster(t, repro.Config{})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var word [8]byte
	db.ReadRaw(24, word[:]) // the header's slot-size word
	if err := db.Load(24, []byte{128, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	slots := s.Slots()
	if err := s.Reopen(); !errors.Is(err, kv.ErrBadFormat) {
		t.Fatalf("Reopen over a header with another slot size = %v, want ErrBadFormat", err)
	}
	if s.Slots() != slots {
		t.Fatalf("Slots %d after the refused Reopen, was %d", s.Slots(), slots)
	}
	if err := db.Load(24, word[:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after Reopen = %q, %v", v, err)
	}
}
