package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

// TestTxHandleContract holds the one transaction handle to one contract in
// every mode, safety level and era: finished handles answer ErrTxDone, a
// handle orphaned by a crash answers ErrCrashed and is never recycled — so
// it cannot alias a transaction of the promoted lineage — and a clean
// Commit or Abort recycles the group's one slot.
func TestTxHandleContract(t *testing.T) {
	for _, row := range []struct {
		name   string
		mode   replication.Mode
		safety replication.Safety
		// failedOver opens the group behind a promoted survivor: an active
		// group's second era, on the active path like its first.
		failedOver bool
	}{
		{"standalone", replication.Standalone, replication.OneSafe, false},
		{"passive-1safe", replication.Passive, replication.OneSafe, false},
		{"passive-2safe", replication.Passive, replication.TwoSafe, false},
		{"active-1safe", replication.Active, replication.OneSafe, false},
		{"active-quorum", replication.Active, replication.QuorumSafe, false},
		{"active-quorum-failed-over", replication.Active, replication.QuorumSafe, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			open := func() *replication.Group {
				g := newGroup(t, row.mode, 3, row.safety)
				if row.failedOver {
					commitSlot(t, g, 0, 1)
					mustNil(t, g.Crash())
					_, err := g.Failover()
					mustNil(t, err)
					// Back to three backups, so the quorum survives the
					// failover the orphan checks below add.
					err = g.Repair()
					mustNil(t, err)
					if _, err := g.RouteRead(0, make([]byte, 8), replication.ReadSpec{Replica: 1}); err != nil {
						t.Fatalf("backup read behind the promoted node = %v: not the active path", err)
					}
				}
				return g
			}
			begin := func(g *replication.Group) replication.TxHandle {
				t.Helper()
				h, err := g.Begin()
				mustNil(t, err)
				return h
			}
			put := func(h replication.TxHandle, slot int) {
				t.Helper()
				mustNil(t, h.SetRange(slot*64, 64))
				mustNil(t, h.Write(slot*64, bytes.Repeat([]byte{byte(slot + 1)}, 64)))
			}
			finished := func(h replication.TxHandle, after string) {
				t.Helper()
				buf := make([]byte, 8)
				for _, c := range []struct {
					method string
					err    error
				}{
					{"SetRange", h.SetRange(0, 8)},
					{"Write", h.Write(0, buf)},
					{"Read", h.Read(0, buf)},
					{"Commit", h.Commit()},
					{"Abort", h.Abort()},
				} {
					if !errors.Is(c.err, vista.ErrTxDone) {
						t.Errorf("%s after %s = %v, want ErrTxDone", c.method, after, c.err)
					}
				}
			}
			failover := func(g *replication.Group) {
				t.Helper()
				_, err := g.Failover()
				mustNil(t, err)
			}
			replicated := row.mode != replication.Standalone

			g := open()
			first := begin(g)
			put(first, 1)
			mustNil(t, first.Commit())
			finished(first, "Commit")

			h := begin(g)
			if h != first {
				t.Fatal("a clean Commit did not recycle the handle")
			}
			put(h, 2)
			mustNil(t, h.Abort())
			finished(h, "Abort")

			// Orphaned before its Commit: refused, and not recycled by the
			// refusal.
			orphan := begin(g)
			if orphan != first {
				t.Fatal("a clean Abort did not recycle the handle")
			}
			put(orphan, 3)
			mustNil(t, g.Crash())
			if err := orphan.Commit(); !errors.Is(err, replication.ErrCrashed) {
				t.Fatalf("Commit on an orphaned handle = %v, want ErrCrashed", err)
			}
			if replicated {
				failover(g)
				h = begin(g)
				if h == orphan {
					t.Fatal("an orphaned handle was recycled by its refused Commit")
				}
				mustNil(t, h.Abort())
			}

			// Orphaned and still unfinished while the promoted lineage has a
			// transaction open: its Abort must not reach that transaction.
			g = open()
			orphan = begin(g)
			put(orphan, 4)
			mustNil(t, g.Crash())
			var fresh replication.TxHandle
			if replicated {
				failover(g)
				fresh = begin(g)
				if fresh == orphan {
					t.Fatal("an orphaned handle was recycled by the crash")
				}
				put(fresh, 5)
			}
			if err := orphan.Abort(); !errors.Is(err, replication.ErrCrashed) {
				t.Fatalf("Abort on an orphaned handle = %v, want ErrCrashed", err)
			}
			if replicated {
				before := g.Committed()
				mustNil(t, fresh.Commit())
				if got := g.Committed(); got != before+1 {
					t.Fatalf("committed %d after the fresh transaction's Commit, want %d", got, before+1)
				}
				if h = begin(g); h != fresh {
					t.Fatal("the slot holds something other than the cleanly committed handle")
				}
				mustNil(t, h.Abort())
			}
		})
	}
}
