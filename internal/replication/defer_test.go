package replication_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// dcStream drives Debit-Credit commits against one group in stages, so a
// test can put a scope, a crash or a failover between them.
type dcStream struct {
	t    *testing.T
	g    *replication.Group
	w    tpc.Workload
	r    *rand.Rand
	next int64
}

func newDCStream(t *testing.T, g *replication.Group, seed uint64) *dcStream {
	t.Helper()
	w, err := tpc.NewDebitCredit(gcDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(g.Load); err != nil {
		t.Fatal(err)
	}
	return &dcStream{t: t, g: g, w: w, r: tpc.NewRand(seed)}
}

// commit runs n further transactions; every Commit must return nil.
func (s *dcStream) commit(n int) {
	s.t.Helper()
	for ; n > 0; n-- {
		tx, err := s.g.Begin()
		if err != nil {
			s.t.Fatalf("begin %d: %v", s.next, err)
		}
		if err := s.w.Txn(s.r, tx, s.next); err != nil {
			s.t.Fatalf("txn %d: %v", s.next, err)
		}
		if err := tx.Commit(); err != nil {
			s.t.Fatalf("commit %d: %v", s.next, err)
		}
		s.next++
	}
}

// TestDeferSealsOnce: inside a scope a group with group commit off stops
// sealing per commit — the backups are told nothing — and Seal publishes
// and waits once for the whole run; the state is the unscoped run's, the
// simulated time is shorter, and per-commit sealing resumes afterwards.
func TestDeferSealsOnce(t *testing.T) {
	const seed, commits = 21, 8
	run := func(scoped bool) (*dcStream, *obs.Registry, []byte) {
		reg := obs.NewRegistry()
		g, err := replication.NewGroup(replication.Config{
			Mode:    replication.Active,
			Store:   vista.Config{Version: vista.V3InlineLog, DBSize: gcDB},
			Backups: 3,
			Safety:  replication.QuorumSafe,
			Obs:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := newDCStream(t, g, seed)
		g.ResetMeasurement()
		if scoped {
			g.Defer()
		}
		s.commit(commits)
		if scoped {
			if got := g.AppliedTxns(0); got != 0 {
				t.Fatalf("backup applied %d transactions inside the scope, want 0", got)
			}
			if err := g.Seal(); err != nil {
				t.Fatalf("seal: %v", err)
			}
		}
		state := make([]byte, gcDB)
		g.Store().ReadRaw(0, state)
		return s, reg, state
	}
	plain, _, plainState := run(false)
	s, reg, state := run(true)
	g := s.g
	if !bytes.Equal(state, plainState) {
		t.Fatal("the scope changed the committed state")
	}
	if g.Elapsed() >= plain.g.Elapsed() {
		t.Fatalf("scoped run took %v simulated, not less than the per-commit %v", g.Elapsed(), plain.g.Elapsed())
	}
	snap := reg.Snapshot()
	if b, n := snap.Counter(replication.MetricCommitBatches), snap.Counter(replication.MetricCommitTxns); b != 1 || n != commits {
		t.Fatalf("scope sealed %d batches for %d transactions, want 1 for %d", b, n, commits)
	}
	if got := g.AppliedTxns(0); got != commits {
		t.Fatalf("backup applied %d transactions after the seal, want %d", got, commits)
	}

	// Scope closed: the next commit seals itself again.
	s.commit(1)
	if b := reg.Snapshot().Counter(replication.MetricCommitBatches); b != 2 {
		t.Fatalf("%d batches after one commit outside the scope, want 2", b)
	}
}

// TestDeferCrashInTheGap: a primary death between a scope's commits and
// its seal is reported by that seal — takeover or not — and by nothing
// else, and until then the scope admits no further transaction.
func TestDeferCrashInTheGap(t *testing.T) {
	const seed, sealed, inScope = 33, 40, 3

	// open returns a quorum group with `sealed` acknowledged commits and an
	// open scope holding `inScope` more.
	open := func(t *testing.T) (*replication.Group, *dcStream) {
		g := newGCGroup(t, replication.QuorumSafe, 0)
		s := newDCStream(t, g, seed)
		s.commit(sealed)
		g.Defer()
		s.commit(inScope)
		return g, s
	}

	t.Run("crash", func(t *testing.T) {
		g, s := open(t)
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := g.Seal(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("seal after the crash = %v, want ErrCrashed", err)
		}
		// The survivors hold exactly the sealed prefix.
		st, err := g.Failover()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Committed(); got != sealed {
			t.Fatalf("survivor holds %d commits, want the %d sealed before the scope", got, sealed)
		}
		ref, err := tpc.Replay(s.w, tpc.Options{Seed: seed}, sealed)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, gcDB)
		st.ReadRaw(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatalf("survivor state does not match the %d-commit prefix", sealed)
		}
	})

	// The scope outlives a Failover: it still admits nothing — a commit
	// computed over the lost ones must not land on the new lineage — its
	// seal still reports the loss, and the error is the scope's alone.
	t.Run("failover-before-the-seal", func(t *testing.T) {
		g, s := open(t)
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Failover(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Begin(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("Begin inside the scope that lost its commits = %v, want ErrCrashed", err)
		}
		if err := g.Seal(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("seal after crash and failover = %v, want ErrCrashed", err)
		}
		s.next = sealed // the promoted lineage continues from the sealed prefix
		s.commit(2)
		if err := g.Flush(); err != nil {
			t.Fatalf("flush on the promoted lineage: %v", err)
		}
		if got := g.Committed(); got != sealed+2 {
			t.Fatalf("promoted lineage holds %d commits, want %d", got, sealed+2)
		}
	})

	// An autopilot promotes at Begin, unasked. Not inside the lost scope.
	t.Run("autopilot-waits-for-the-seal", func(t *testing.T) {
		g, err := replication.NewGroup(replication.Config{
			Mode:    replication.Active,
			Store:   vista.Config{Version: vista.V3InlineLog, DBSize: gcDB},
			Backups: 3,
			Safety:  replication.QuorumSafe,
			Autopilot: replication.AutopilotConfig{
				HeartbeatPeriod: 200 * sim.Microsecond,
				AutoFailover:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := newDCStream(t, g, seed)
		s.commit(sealed)
		g.Defer()
		s.commit(inScope)
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Begin(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("Begin inside the scope that lost its commits = %v, want ErrCrashed", err)
		}
		if got := g.Generation(); got != 0 {
			t.Fatalf("generation %d: a survivor was promoted under the open scope", got)
		}
		if err := g.Seal(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("seal = %v, want ErrCrashed", err)
		}
		s.next = sealed
		s.commit(1) // this Begin performs the takeover
		if gen, got := g.Generation(), g.Committed(); gen != 1 || got != sealed+1 {
			t.Fatalf("generation %d with %d commits after the seal, want 1 with %d", gen, got, sealed+1)
		}
	})

	// A partitioned primary keeps committing at 1-safe inside its lease;
	// once it is declared dead the autopilot deposes it at a Begin. If
	// that Begin sits inside a scope holding unsealed commits, deposing is
	// a primary death like any other: refused, and no takeover yet.
	t.Run("deposed-inside-the-scope", func(t *testing.T) {
		ap := apTiming
		ap.AutoFailover = true
		g := newAutopilotGroup(t, replication.Active, 2, replication.OneSafe, ap)
		commitSlot(t, g, 0, 1)
		g.Defer()
		commitSlot(t, g, 1, 2)
		if err := g.PartitionPrimary(); err != nil {
			t.Fatal(err)
		}
		var err error
		for i := 0; i < 10000 && err == nil; i++ {
			var tx replication.TxHandle
			if tx, err = g.Begin(); err == nil {
				err = tx.Commit()
			}
		}
		if !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("the Begin that deposed the primary = %v, want ErrCrashed", err)
		}
		if got := g.Generation(); got != 0 {
			t.Fatalf("generation %d: a survivor was promoted under the open scope", got)
		}
		if err := g.Seal(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("seal = %v, want ErrCrashed", err)
		}
		commitSlot(t, g, 2, 3) // this Begin performs the takeover
		if got := g.Generation(); got != 1 {
			t.Fatalf("generation %d after the seal, want 1", got)
		}
	})

	t.Run("nothing-unsealed", func(t *testing.T) {
		g, _ := open(t)
		// An explicit Flush inside the scope seals early; the crash then
		// takes nothing of the scope's with it.
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := g.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := g.Seal(); err != nil {
			t.Fatalf("seal with nothing unsealed at the crash = %v, want nil", err)
		}
		st, err := g.Failover()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Committed(); got != sealed+inScope {
			t.Fatalf("survivor holds %d commits, want %d", got, sealed+inScope)
		}
	})
}
