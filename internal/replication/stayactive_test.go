package replication_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

const eraDB = 1 << 18

// eraRig drives one Active group through failovers against a shadow image:
// transaction n writes a 64-byte self-describing value into slot n mod 509,
// and the shadow takes it only once the commit is acknowledged.
type eraRig struct {
	t      *testing.T
	g      *replication.Group
	k      int
	shadow []byte
	n      uint64
}

func newEraRig(t *testing.T, cfg replication.Config) *eraRig {
	t.Helper()
	cfg.Mode = replication.Active
	cfg.Store = vista.Config{Version: vista.V3InlineLog, DBSize: eraDB}
	g, err := replication.NewGroup(cfg)
	mustNil(t, err)
	return &eraRig{t: t, g: g, k: cfg.Backups, shadow: make([]byte, eraDB)}
}

// write runs transaction r.n up to its Commit and returns the handle.
func (r *eraRig) write(size int) (replication.TxHandle, int, []byte) {
	r.t.Helper()
	off := int(r.n%509) * 64
	val := bytes.Repeat([]byte{byte(r.n), byte(r.n >> 8), ^byte(r.n), 0x5a}, size/4)
	tx, err := r.g.Begin()
	mustNil(r.t, err)
	mustNil(r.t, tx.SetRange(off, size))
	mustNil(r.t, tx.Write(off, val))
	return tx, off, val
}

func (r *eraRig) commit(txns int) {
	r.t.Helper()
	for ; txns > 0; txns-- {
		tx, off, val := r.write(64)
		mustNil(r.t, tx.Commit())
		copy(r.shadow[off:], val)
		r.n++
	}
}

// failover settles, kills the primary and promotes: nothing acknowledged
// is lost, so the committed count carries straight on.
func (r *eraRig) failover() {
	r.t.Helper()
	r.g.Settle(r.g.QuiesceGrace())
	before := r.g.Committed()
	mustNil(r.t, r.g.Crash())
	_, err := r.g.Failover()
	mustNil(r.t, err)
	if got := r.g.Committed(); got != before {
		r.t.Fatalf("generation %d opens at commit %d, the last one closed at %d", r.g.Generation(), got, before)
	}
}

func (r *eraRig) repair() {
	r.t.Helper()
	before := r.g.Committed()
	err := r.g.Repair()
	mustNil(r.t, err)
	if got := r.g.Committed(); got != before {
		r.t.Fatalf("repair moved the committed count %d -> %d", before, got)
	}
}

// check holds the era to the active scheme's contract: no undo log on the
// SAN, every backup a full member whose applied sequence and database equal
// the primary's after a quiet moment, and bounded reads served by a backup.
func (r *eraRig) check() {
	r.t.Helper()
	g := r.g
	g.Settle(g.QuiesceGrace())
	if got := g.NetBytes()[mem.CatUndo]; got != 0 {
		r.t.Fatalf("generation %d shipped %d undo bytes: the passive scheme's traffic", g.Generation(), got)
	}
	if got := g.Committed(); got != r.n {
		r.t.Fatalf("committed %d, acknowledged %d", got, r.n)
	}
	got := make([]byte, eraDB)
	g.ReadRaw(0, got)
	if !bytes.Equal(got, r.shadow) {
		r.t.Fatalf("generation %d: primary image differs from the shadow at byte %d", g.Generation(), firstDiff(got, r.shadow))
	}
	if g.Backups() != r.k {
		r.t.Fatalf("generation %d has %d backups, want %d", g.Generation(), g.Backups(), r.k)
	}
	for i := 0; i < r.k; i++ {
		if st := g.BackupState(i); st != replication.StateInSync {
			r.t.Fatalf("generation %d: backup %d is %v", g.Generation(), i, st)
		}
		if applied := g.AppliedTxns(i); applied != r.n {
			r.t.Fatalf("generation %d: backup %d applied %d of %d", g.Generation(), i, applied, r.n)
		}
		g.BackupNode(i).Space.ByName(vista.RegionDB).ReadRaw(0, got)
		if !bytes.Equal(got, r.shadow) {
			r.t.Fatalf("generation %d: backup %d differs from the shadow at byte %d", g.Generation(), i, firstDiff(got, r.shadow))
		}
	}
	buf := make([]byte, 64)
	res, err := g.RouteRead(0, buf, replication.ReadSpec{Mode: replication.ReadBounded, Bound: 4})
	mustNil(r.t, err)
	if res.Replica == 0 || !bytes.Equal(buf, r.shadow[:64]) {
		r.t.Fatalf("generation %d: bounded read served by %d at seq %d of %d", g.Generation(), res.Replica, res.Seq, res.Primary)
	}
}

// secondEra returns a K=3 quorum rig that has been through one
// Crash → Failover → Repair and committed again behind the promoted node.
func secondEra(t *testing.T, cfg replication.Config) *eraRig {
	t.Helper()
	cfg.Backups, cfg.Safety = 3, replication.QuorumSafe
	r := newEraRig(t, cfg)
	r.commit(40)
	r.failover()
	r.repair()
	r.commit(10)
	mustNil(t, r.g.Flush())
	r.check()
	return r
}

// TestFailoverStaysActive: a group that began Active runs the active scheme
// in every era — behind each promoted survivor the redo ring is the only
// thing on the SAN, the commit sequence continues, and the backups serve
// reads again once repaired. The second-era subtests repeat, behind a
// promoted node, what the first era's own tests establish.
func TestFailoverStaysActive(t *testing.T) {
	for _, k := range []int{1, 3} {
		for _, safety := range []replication.Safety{replication.OneSafe, replication.QuorumSafe} {
			t.Run(fmt.Sprintf("K%d-%v", k, safety), func(t *testing.T) {
				r := newEraRig(t, replication.Config{Backups: k, Safety: safety})
				r.commit(60)
				r.check()
				for era := 1; era <= 3; era++ {
					r.failover()
					if k == 1 && safety == replication.OneSafe {
						// The paper's pair, alone: nothing to ship to, and
						// the joiner attaches to a lane that kept counting.
						r.commit(5)
						if got := r.g.NetBytes(); len(got) != 0 {
							t.Fatalf("a primary with no backup shipped %v", got)
						}
					}
					r.repair()
					r.commit(30)
					r.check()
				}
			})
		}
	}

	t.Run("crash-in-open-batch", func(t *testing.T) {
		r := secondEra(t, replication.Config{CommitBatch: 5})
		sealed := append([]byte(nil), r.shadow...)
		base := r.n
		r.commit(2) // joins a batch nobody seals
		mustNil(t, r.g.Crash())
		st, err := r.g.Failover()
		mustNil(t, err)
		if got := st.Committed(); got != base {
			t.Fatalf("survivor holds %d commits, want the %d sealed", got, base)
		}
		r.shadow, r.n = sealed, base
		r.repair()
		r.commit(5)
		r.check()
	})

	t.Run("crash-in-unsealed-scope", func(t *testing.T) {
		r := secondEra(t, replication.Config{})
		sealed := append([]byte(nil), r.shadow...)
		base := r.n
		r.g.Defer()
		r.commit(3)
		mustNil(t, r.g.Crash())
		if err := r.g.Seal(); !errors.Is(err, replication.ErrCrashed) {
			t.Fatalf("seal after the crash = %v, want ErrCrashed", err)
		}
		st, err := r.g.Failover()
		mustNil(t, err)
		if got := st.Committed(); got != base {
			t.Fatalf("survivor holds %d commits, want the %d sealed before the scope", got, base)
		}
		r.shadow, r.n = sealed, base
		r.repair()
		r.commit(5)
		r.check()
	})

	t.Run("pause-resume", func(t *testing.T) {
		r := secondEra(t, replication.Config{})
		// An empty gap: rejoin without a byte of transfer.
		mustNil(t, r.g.PauseBackup(2))
		mustNil(t, r.g.ResumeBackup(2))
		mustNil(t, r.g.RepairAsync())
		if st := r.g.RepairStatus(); st.Active || st.BytesShipped != 0 {
			t.Fatalf("gap-free rejoin: %+v", st)
		}
		r.commit(10)
		r.check()
		// A gap of twenty commits: the delta, not the database.
		mustNil(t, r.g.PauseBackup(2))
		r.commit(20)
		r.g.Settle(r.g.QuiesceGrace())
		mustNil(t, r.g.ResumeBackup(2))
		r.repair()
		if st := r.g.RepairStatus(); st.BytesShipped == 0 || st.BytesShipped >= eraDB {
			t.Fatalf("delta resync shipped %d bytes of a %d-byte database", st.BytesShipped, eraDB)
		}
		r.commit(10)
		r.check()
	})

	t.Run("crash-mid-join", func(t *testing.T) {
		r := secondEra(t, replication.Config{RepairChunk: 4096})
		mustNil(t, r.g.PowerFailNode(1))
		mustNil(t, r.g.RepairAsync())
		r.commit(3)
		if st := r.g.BackupState(2); st != replication.StateSyncing {
			t.Fatalf("joiner is %v, want syncing", st)
		}
		// The joiner outlives its transfer source with a fuzzy copy and a
		// ring of the dead era: the next era owes it both afresh.
		r.failover()
		r.repair()
		r.commit(20)
		r.check()
	})

	t.Run("wrap-reused-ring", func(t *testing.T) {
		params := sim.Default()
		params.RingBytes = 4096
		r := secondEra(t, replication.Config{Params: &params})
		// 40 records of ~1 KB cross the promoted node's 4 KB ring ten
		// times; a record that would straddle the end leaves a wrap marker.
		for i := 0; i < 40; i++ {
			tx, off, val := r.write(1000)
			mustNil(t, tx.Commit())
			copy(r.shadow[off:], val)
			r.n++
		}
		r.check()
		r.failover()
		r.repair()
		r.commit(5)
		r.check()
	})
}

// TestColdRestartThenFailoverKeepsCommitSeq: the backups of a cold-restarted
// Active group count from the recovered commit sequence, not from zero — so
// they serve bounded reads, their lag gauges read the true lag, and a
// promotion seeds the survivor's committed count at or above every commit
// token already handed out.
func TestColdRestartThenFailoverKeepsCommitSeq(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	open := func() *replication.Group {
		g, err := replication.NewGroup(replication.Config{
			Mode:       replication.Active,
			Store:      vista.Config{Version: vista.V3InlineLog, DBSize: durDB},
			Backups:    2,
			Safety:     replication.QuorumSafe,
			Durability: replication.DurabilityConfig{Dir: dir, SnapshotEvery: 40},
			Obs:        reg,
		})
		mustNil(t, err)
		return g
	}
	bounded := func(g *replication.Group) int {
		t.Helper()
		res, err := g.RouteRead(0, make([]byte, 16), replication.ReadSpec{Mode: replication.ReadBounded, Bound: 4})
		mustNil(t, err)
		return res.Replica
	}

	g := open()
	seq := uint64(0)
	commit := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			seq++
			durCommit(t, g, seq)
		}
	}
	commit(123)
	if bounded(g) == 0 {
		t.Fatal("bounded read served by the primary before the restart")
	}
	g.Settle(g.QuiesceGrace())
	mustNil(t, g.PowerFail())

	g = open()
	defer g.Close()
	if got := g.Committed(); got != seq {
		t.Fatalf("restart recovered %d commits of %d", got, seq)
	}
	commit(10)
	for i := 0; i < 2; i++ {
		if got := g.AppliedTxns(i); got != seq {
			t.Fatalf("backup %d applied sequence %d after the restart, committed %d", i, got, seq)
		}
		if lag := reg.Snapshot().Gauge(fmt.Sprintf("repl.backup%d.lag", i)); lag != 0 {
			t.Fatalf("backup %d lag gauge reads %d behind an acknowledged quorum commit", i, lag)
		}
	}
	if bounded(g) == 0 {
		t.Fatal("bounded read served by the primary after the restart")
	}

	g.Settle(g.QuiesceGrace())
	mustNil(t, g.Crash())
	_, err := g.Failover()
	mustNil(t, err)
	if got := g.Committed(); got != seq {
		t.Fatalf("failover after the restart serves commit %d, below the %d acknowledged", got, seq)
	}
	err = g.Repair()
	mustNil(t, err)
	commit(5)
	if got := g.Committed(); got != seq {
		t.Fatalf("committed %d after the repair, want %d", got, seq)
	}
	durCheckImage(t, g, seq)
	if bounded(g) == 0 {
		t.Fatal("bounded read served by the primary after failover and repair")
	}
}
