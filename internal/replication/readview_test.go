package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// readAt is a read pinned to backup r: RouteRead with ReadSpec.Replica set.
func readAt(g *replication.Group, r, off int, dst []byte) (uint64, error) {
	res, err := g.RouteRead(off, dst, replication.ReadSpec{Replica: r + 1})
	return res.Seq, err
}

// TestReadAtServesInSyncBackups: every fully enrolled backup of an active
// group serves a pinned read with the primary's committed data and reports
// the applied sequence it read at.
func TestReadAtServesInSyncBackups(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.QuorumSafe)
	for i := 0; i < 5; i++ {
		commitSlot(t, g, i, byte(0xA0+i))
	}
	g.Settle(10 * sim.Microsecond)

	dst := make([]byte, 64)
	for r := 0; r < 2; r++ {
		seq, err := readAt(g, r, 3*64, dst)
		if err != nil {
			t.Fatalf("pinned read of backup %d: %v", r, err)
		}
		if seq != g.Committed() {
			t.Fatalf("backup %d applied seq %d, committed %d", r, seq, g.Committed())
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xA3}, 64)) {
			t.Fatalf("backup %d served wrong bytes: % x...", r, dst[:8])
		}
	}
	if _, err := readAt(g, 7, 0, dst); err == nil {
		t.Fatal("out-of-range replica index served")
	}
	if _, err := readAt(g, 0, -64, dst); err == nil {
		t.Fatal("negative offset served")
	}
}

// TestReadAtRefusesNotFullyEnrolled: paused, crashed, and epoch-fenced
// replicas are not read views — exactly the acknowledgement predicate.
func TestReadAtRefusesNotFullyEnrolled(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.QuorumSafe)
	commitSlot(t, g, 0, 0x11)
	g.Settle(10 * sim.Microsecond)

	dst := make([]byte, 64)
	if err := g.PauseBackup(0); err != nil {
		t.Fatal(err)
	}
	if _, err := readAt(g, 0, 0, dst); !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("paused backup served: %v", err)
	}
	if err := g.CrashBackup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := readAt(g, 1, 0, dst); !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("crashed backup served: %v", err)
	}
	g.SetBackupEpochForTest(2, g.Epoch()+1)
	if _, err := readAt(g, 2, 0, dst); !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("epoch-fenced backup served: %v", err)
	}
}

// TestReadAtPassiveNeverServes: the passive scheme's mirror copies are
// torn mid-transaction, so they are never read views.
func TestReadAtPassiveNeverServes(t *testing.T) {
	g := newGroup(t, replication.Passive, 2, replication.OneSafe)
	commitSlot(t, g, 0, 0x22)
	g.Settle(10 * sim.Microsecond)
	dst := make([]byte, 64)
	if _, err := readAt(g, 0, 0, dst); !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("passive mirror served a replica read: %v", err)
	}
	// Routed reads still work — they fall back to the primary.
	res, err := g.RouteRead(0, dst, replication.ReadSpec{Mode: replication.ReadQuorum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 0 {
		t.Fatalf("passive group routed to replica %d", res.Replica)
	}
}

// TestReadAtMidJoinNeverServes is the enrollment-gate acceptance test: a
// replica being rebuilt by the online repair (Syncing/CatchingUp from the
// join state machine) holds a fuzzy copy and must refuse reads for the
// whole transfer, then serve again once cut over to InSync.
func TestReadAtMidJoinNeverServes(t *testing.T) {
	g := newActiveGroup(t, 2, replication.OneSafe)
	for i := 0; i < 30; i++ {
		commitSlot(t, g, i, byte(i))
	}
	g.Settle(g.QuiesceGrace())
	if err := g.PowerFailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := g.RepairAsync(); err != nil {
		t.Fatal(err)
	}
	if !g.RepairStatus().Active {
		t.Fatal("repair not active after RepairAsync")
	}

	dst := make([]byte, 64)
	probes := 0
	for i := 0; i < 200000 && g.RepairStatus().Active; i++ {
		commitSlot(t, g, i%64, byte(i))
		if st := g.BackupState(1); st == replication.StateSyncing || st == replication.StateCatchingUp {
			probes++
			if _, err := readAt(g, 1, 0, dst); !errors.Is(err, replication.ErrReplicaUnavailable) {
				t.Fatalf("mid-join replica (state %v) served: %v", st, err)
			}
		}
		if i%100 == 0 {
			g.Settle(g.QuiesceGrace())
		}
	}
	if g.RepairStatus().Active {
		t.Fatal("repair never completed")
	}
	if probes == 0 {
		t.Fatal("never observed the joiner mid-transfer")
	}
	g.Settle(g.QuiesceGrace())
	if got := g.BackupState(1); got != replication.StateInSync {
		t.Fatalf("joiner state %v after cut-over", got)
	}
	if _, err := readAt(g, 1, 0, dst); err != nil {
		t.Fatalf("re-enrolled replica refuses reads: %v", err)
	}
}

// TestRouteReadYourWrites: a backup at or past the caller's token serves;
// a token past every backup falls back to the primary; a pinned read
// never falls back.
func TestRouteReadYourWrites(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.QuorumSafe)
	for i := 0; i < 10; i++ {
		commitSlot(t, g, i, byte(0x30+i))
	}
	g.Settle(10 * sim.Microsecond)
	tok := g.Committed()

	dst := make([]byte, 64)
	res, err := g.RouteRead(2*64, dst, replication.ReadSpec{Mode: replication.ReadYourWrites, MinSeq: tok})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica == 0 || res.Seq < tok {
		t.Fatalf("caught-up backup not chosen: %+v (token %d)", res, tok)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x32}, 64)) {
		t.Fatalf("replica served wrong bytes: % x...", dst[:8])
	}

	// A token from the future (no backup can have applied it): primary.
	res, err = g.RouteRead(2*64, dst, replication.ReadSpec{Mode: replication.ReadYourWrites, MinSeq: tok + 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 0 || res.Seq != res.Primary {
		t.Fatalf("unsatisfiable token did not fall back to primary: %+v", res)
	}

	// Pinned reads surface the refusal instead of falling back.
	_, err = g.RouteRead(2*64, dst, replication.ReadSpec{
		Mode: replication.ReadYourWrites, MinSeq: tok + 100, Replica: 1,
	})
	if !errors.Is(err, replication.ErrReplicaUnavailable) {
		t.Fatalf("pinned unsatisfiable read fell back: %v", err)
	}
}

// TestRouteReadBounded: with group commit holding a batch open the primary's
// committed counter runs ahead of every backup (parked commits are local),
// giving a deterministic lag to route against.
func TestRouteReadBounded(t *testing.T) {
	g, err := replication.NewGroup(replication.Config{
		Mode:        replication.Active,
		Store:       vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Backups:     2,
		Safety:      replication.QuorumSafe,
		CommitBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		commitSlot(t, g, i, byte(0x50+i)) // parked in the open batch
	}
	if got := g.Committed(); got != 5 {
		t.Fatalf("committed %d with open batch, want 5", got)
	}

	// Lag 5 > bound 2: no backup qualifies, the primary serves.
	dst := make([]byte, 64)
	res, err := g.RouteRead(0, dst, replication.ReadSpec{Mode: replication.ReadBounded, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 0 || res.Seq != 5 {
		t.Fatalf("over-bound lag not routed to primary: %+v", res)
	}

	// Lag 5 ≤ bound 16: a backup serves its (stale but in-bound) view.
	res, err = g.RouteRead(0, dst, replication.ReadSpec{Mode: replication.ReadBounded, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica == 0 {
		t.Fatalf("in-bound backup not chosen: %+v", res)
	}
	if res.Primary-res.Seq > 16 {
		t.Fatalf("served view exceeds the advertised bound: %+v", res)
	}

	// After a flush + settle the lag collapses and even Bound: 0 is
	// satisfiable from a backup.
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	g.Settle(10 * sim.Microsecond)
	res, err = g.RouteRead(0, dst, replication.ReadSpec{Mode: replication.ReadBounded, Bound: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica == 0 || res.Seq != res.Primary {
		t.Fatalf("caught-up backup not chosen at bound 0: %+v", res)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x50}, 64)) {
		t.Fatalf("bounded read served wrong bytes: % x...", dst[:8])
	}
}

// TestRouteReadQuorum: a majority of enrolled backups is inspected and the
// max-sequence view serves; when the enrolled set falls below the read
// quorum, the primary completes it.
func TestRouteReadQuorum(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.QuorumSafe)
	for i := 0; i < 20; i++ {
		commitSlot(t, g, i, byte(0x70+i))
	}
	g.Settle(10 * sim.Microsecond)

	dst := make([]byte, 64)
	res, err := g.RouteRead(4*64, dst, replication.ReadSpec{Mode: replication.ReadQuorum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica == 0 {
		t.Fatalf("quorum read served by primary with 3 healthy backups: %+v", res)
	}
	if res.Seq != g.Committed() {
		// Any read-majority intersects every commit quorum, so the max view
		// has everything acknowledged — here everything, period (settled).
		t.Fatalf("quorum view seq %d, committed %d", res.Seq, g.Committed())
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x74}, 64)) {
		t.Fatalf("quorum read served wrong bytes: % x...", dst[:8])
	}

	// Two of three paused: one servable backup < read quorum of 2 — the
	// primary completes the quorum and serves.
	if err := g.PauseBackup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	res, err = g.RouteRead(4*64, dst, replication.ReadSpec{Mode: replication.ReadQuorum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 0 || res.Seq != res.Primary {
		t.Fatalf("undersized quorum not completed by primary: %+v", res)
	}

	// A crashed group serves nothing.
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteRead(0, dst, replication.ReadSpec{Mode: replication.ReadQuorum}); !errors.Is(err, replication.ErrCrashed) {
		t.Fatalf("crashed group routed a read: %v", err)
	}
	if _, err := readAt(g, 2, 0, dst); !errors.Is(err, replication.ErrCrashed) {
		t.Fatalf("crashed group served a pinned read: %v", err)
	}
}

// TestElapsedCountsReplicaReads: backup-served reads run on the backups'
// clocks, in parallel with the primary, so the measured interval is the
// longest span of the serving node and every backup that served: past the
// serving node's own span after backup reads, equal to it when no backup
// served, and clean again after ResetMeasurement.
func TestElapsedCountsReplicaReads(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.QuorumSafe)
	for i := 0; i < 8; i++ {
		commitSlot(t, g, i, byte(i))
	}
	g.Settle(10 * sim.Microsecond)
	own := func(origin sim.Time) sim.Time { return g.Primary().Clock.Now() - origin }

	// An interval of pure backup reads: the primary sits idle while the
	// backup's clock accumulates the charged reads.
	g.ResetMeasurement()
	origin := g.Primary().Clock.Now()
	if e := g.Elapsed(); e != own(origin) {
		t.Fatalf("no replica reads yet, Elapsed %v != the primary's span %v", e, own(origin))
	}
	dst := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if _, err := readAt(g, 0, (i%8)*64, dst); err != nil {
			t.Fatal(err)
		}
	}
	if e := g.Elapsed(); e <= own(origin) {
		t.Fatalf("200 backup reads invisible: Elapsed %v <= the primary's span %v", e, own(origin))
	}

	// The next interval starts clean.
	g.ResetMeasurement()
	origin = g.Primary().Clock.Now()
	if e := g.Elapsed(); e != own(origin) {
		t.Fatalf("after reset, Elapsed %v != the primary's span %v", e, own(origin))
	}
}

// TestElapsedCountsReaderWork: a read-serving backup is measured by its
// work, not by its clock — the reads it served and the records it applied,
// sim.Ring's ApplyPerRecord plus ApplyPerByte per byte for every batch
// published to it, which never move its clock.
func TestElapsedCountsReaderWork(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.QuorumSafe)
	for i := 0; i < 8; i++ {
		commitSlot(t, g, i, byte(i))
	}
	g.Settle(10 * sim.Microsecond)
	g.ResetMeasurement()
	n := g.BackupNode(0)
	busy0, clock0 := n.Busy(), n.Clock.Now()
	dst := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if _, err := readAt(g, 0, (i%8)*64, dst); err != nil {
			t.Fatal(err)
		}
	}
	reads := n.Busy() - busy0
	if reads <= 0 || reads != n.Clock.Now()-clock0 {
		t.Fatalf("200 reads made %v of busy time and moved the clock %v: want them equal and positive", reads, n.Clock.Now()-clock0)
	}
	if e := g.Elapsed(); e < reads {
		t.Fatalf("Elapsed %v below the reader's work %v", e, reads)
	}

	const commits = 20
	clock1 := n.Clock.Now()
	for i := 0; i < commits; i++ {
		commitSlot(t, g, i%8, byte(i))
	}
	// One 64-byte write's record: an 8-byte header and a 6-byte entry
	// before the data, padded to 80 bytes.
	p := g.Params()
	apply := sim.Time(commits) * sim.Time(p.ApplyPerRecord+80*p.ApplyPerByte)
	if got := n.Busy() - busy0 - reads; got != apply {
		t.Fatalf("%d commits added %v of busy time, want %v of applying", commits, got, apply)
	}
	if n.Clock.Now() != clock1 {
		t.Fatal("applying moved the backup's clock")
	}
	if e := g.Elapsed(); e < reads+apply {
		t.Fatalf("Elapsed %v below the reader's work %v", e, reads+apply)
	}
}

// TestElapsedCarriesReadersAcrossTakeover: an unattended takeover keeps
// the measured interval going, and the backups that served reads in it
// stay in it. The readers' clocks are advanced to the detection instant at
// the takeover; their work is not.
func TestElapsedCarriesReadersAcrossTakeover(t *testing.T) {
	ap := apTiming
	ap.AutoFailover = true
	g := newAutopilotGroup(t, replication.Active, 3, replication.QuorumSafe, ap)
	for i := 0; i < 8; i++ {
		commitSlot(t, g, i, byte(i))
	}
	g.Settle(10 * sim.Microsecond)
	g.ResetMeasurement()
	origin := g.Now()
	n := g.BackupNode(2)
	busy0 := n.Busy()
	dst := make([]byte, 64)
	// Far more work than the detection wait and the takeover cost the
	// promoted primary's span.
	for i := 0; n.Busy()-busy0 < sim.Time(50*ap.HeartbeatPeriod); i++ {
		if _, err := readAt(g, 2, (i%8)*64, dst); err != nil {
			t.Fatal(err)
		}
	}
	work := n.Busy() - busy0
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	commitSlot(t, g, 0, 0xEE) // the Begin detects the crash and takes over
	if g.Generation() != 1 {
		t.Fatalf("generation %d after the crash, want 1", g.Generation())
	}
	if span := g.Now() - origin; span >= work {
		t.Fatalf("the promoted primary's span %v already covers the reader's work %v: the test needs more reads", span, work)
	}
	if e := g.Elapsed(); e < work {
		t.Fatalf("the takeover dropped the read server: Elapsed %v < its work %v", e, work)
	}
}

// TestElapsedBesideReplicaReads: Elapsed is sampled from another goroutine
// while commits, scope seals that leave their acknowledgement in flight,
// backup-served reads and resets publish new read servers and instants —
// the -race passes' check that the published (clock, origin) pairs need
// no lock.
func TestElapsedBesideReplicaReads(t *testing.T) {
	g := newGroup(t, replication.Active, 2, replication.QuorumSafe)
	stop, first := make(chan struct{}), make(chan struct{})
	sampled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				sampled <- n
				return
			default:
			}
			if e := g.Elapsed(); e < 0 {
				t.Errorf("Elapsed %v", e)
			}
			if n++; n == 1 {
				close(first)
			}
		}
	}()
	// The reads start once the sampler runs: a loop that finished before
	// the sampler was first scheduled would check nothing.
	<-first
	dst := make([]byte, 64)
	bounded := replication.ReadSpec{Mode: replication.ReadBounded, Bound: 1 << 20}
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			g.Defer()
		}
		commitSlot(t, g, i%8, byte(i))
		if i%3 == 2 {
			if err := g.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			g.Settle(g.QuiesceGrace())
		}
		if _, err := g.RouteRead((i%8)*64, dst, bounded); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			g.ResetMeasurement()
		}
	}
	close(stop)
	if n := <-sampled; n == 0 {
		t.Fatal("Elapsed never sampled")
	}
}

// TestReadModeNames pins the mode names used across flags, metrics, and
// bench output.
func TestReadModeNames(t *testing.T) {
	want := map[replication.ReadMode]string{
		replication.ReadPrimary:    "primary",
		replication.ReadYourWrites: "ryw",
		replication.ReadBounded:    "bounded",
		replication.ReadQuorum:     "quorum",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("mode %d: %q, want %q", m, m.String(), name)
		}
		if !m.Valid() {
			t.Errorf("mode %q invalid", name)
		}
	}
	if replication.ReadMode(9).Valid() {
		t.Error("ReadMode(9) claims valid")
	}
}
