package replication_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// Randomized crash-point tests: drive a workload, crash the primary at a
// random point — between transactions, mid-SAN-stream, with or without a
// settling grace, with backups paused or killed — fail over, and assert
// that the recovered database is exactly the state after some committed
// prefix, with no acknowledged commit lost and no torn transaction.
//
// The seed is fixed and logged so any failure replays deterministically;
// override it with the iteration index printed in the failure message.

const (
	crashDB = 4 << 20
	// crashWindow bounds the 1-safe loss window for a clean (uninjected)
	// crash: at most the commits still coalescing in the write buffers.
	crashWindow = 8
)

// crashScenario is one randomized configuration.
type crashScenario struct {
	mode    replication.Mode
	safety  replication.Safety
	backups int
	commits int
	settle  bool
	// injectPackets > 0 freezes the SAN at that packet mid-run (1-safe
	// only: stronger levels gate commits on acknowledged delivery).
	injectPackets int64
	// pauseAt maps a backup index to the commit count at which it is
	// partitioned away.
	pauseAt map[int]int
	// crashBackups lists backups killed together with the primary.
	crashBackups []int
	workSeed     uint64
}

// maxPausable returns how many backups a scenario may partition while the
// safety level still accepts commits.
func maxPausable(s replication.Safety, k int) int {
	switch s {
	case replication.TwoSafe:
		return 0
	case replication.QuorumSafe:
		return k - replication.QuorumAcks(k)
	default:
		return k - 1
	}
}

// drawScenario samples one configuration.
func drawScenario(rng *rand.Rand) crashScenario {
	modes := []replication.Mode{replication.Passive, replication.Active}
	safeties := []replication.Safety{replication.OneSafe, replication.TwoSafe, replication.QuorumSafe}
	sc := crashScenario{
		mode:     modes[rng.Intn(len(modes))],
		safety:   safeties[rng.Intn(len(safeties))],
		backups:  1 + rng.Intn(3),
		commits:  20 + rng.Intn(80),
		settle:   rng.Intn(2) == 0,
		workSeed: uint64(rng.Int63()) | 1,
	}
	if sc.safety == replication.OneSafe && !sc.settle && rng.Intn(2) == 0 {
		sc.injectPackets = int64(40 + rng.Intn(1500))
	}
	// Partition a random subset of the pausable backups mid-run.
	if p := maxPausable(sc.safety, sc.backups); p > 0 && sc.injectPackets == 0 && rng.Intn(2) == 0 {
		sc.pauseAt = map[int]int{}
		for len(sc.pauseAt) < 1+rng.Intn(p) {
			sc.pauseAt[rng.Intn(sc.backups)] = 1 + rng.Intn(sc.commits)
		}
	}
	// Kill a subset of the backups along with the primary, always leaving
	// at least one survivor.
	perm := rng.Perm(sc.backups)
	for _, i := range perm[:rng.Intn(sc.backups)] {
		sc.crashBackups = append(sc.crashBackups, i)
	}
	return sc
}

// runScenario executes the scenario and checks the recovery invariants.
func runScenario(t *testing.T, iter int, sc crashScenario) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("iter %d %+v: "+format, append([]any{iter, sc}, args...)...)
	}

	g, err := replication.NewGroup(replication.Config{
		Mode:    sc.mode,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: crashDB},
		Backups: sc.backups,
		Safety:  sc.safety,
	})
	if err != nil {
		fail("build: %v", err)
	}
	w, err := tpc.NewDebitCredit(crashDB)
	if err != nil {
		fail("workload: %v", err)
	}
	if err := w.Populate(g.Load); err != nil {
		fail("populate: %v", err)
	}
	if sc.injectPackets > 0 {
		g.Primary().MC.CrashAfterPackets(sc.injectPackets)
	}

	// Drive the workload with the same loop shape as tpc.Run (warmup 0,
	// no aborts) so tpc.Replay reconstructs reference states.
	r := tpc.NewRand(sc.workSeed)
	for i := 0; i < sc.commits; i++ {
		for b, at := range sc.pauseAt {
			if at == i {
				if err := g.PauseBackup(b); err != nil {
					fail("pause %d: %v", b, err)
				}
			}
		}
		tx, err := g.Begin()
		if err != nil {
			fail("begin %d: %v", i, err)
		}
		if err := w.Txn(r, tx, int64(i)); err != nil {
			fail("txn %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			fail("commit %d: %v", i, err)
		}
	}
	if sc.settle {
		g.Settle(20 * sim.Microsecond)
	}
	if err := g.Crash(); err != nil {
		fail("crash: %v", err)
	}
	for _, b := range sc.crashBackups {
		if err := g.CrashBackup(b); err != nil {
			fail("crash backup %d: %v", b, err)
		}
	}
	st, err := g.Failover()
	if err != nil {
		fail("failover: %v", err)
	}

	// Invariant 1: the survivor serves some prefix, never more than the
	// primary committed.
	k := int64(st.Committed())
	n := int64(sc.commits)
	if k > n {
		fail("recovered %d commits, primary did %d", k, n)
	}

	// Invariant 2: no acknowledged commit is lost. Work out the floor
	// guaranteed by the best intact survivor (the promotion rule always
	// reaches at least that replica's prefix).
	floor := int64(0)
	if sc.injectPackets == 0 {
		crashed := map[int]bool{}
		for _, b := range sc.crashBackups {
			crashed[b] = true
		}
		for i := 0; i < sc.backups; i++ {
			if crashed[i] {
				continue
			}
			f := n - crashWindow
			if sc.settle || sc.safety != replication.OneSafe {
				f = n
			}
			if at, paused := sc.pauseAt[i]; paused {
				f = int64(at) - crashWindow
			}
			if f > floor {
				floor = f
			}
		}
		if floor < 0 {
			floor = 0
		}
	}
	if k < floor {
		fail("recovered %d commits, acked floor is %d", k, floor)
	}

	// Invariant 3: the state is exactly the prefix state — no torn
	// transaction. (Passive mirror-less V3 under a mid-stream packet cut
	// may expose the transaction that was crossing the SAN; the active
	// scheme never does.)
	ref, err := tpc.Replay(mustDC(t), tpc.Options{Seed: sc.workSeed}, k)
	if err != nil {
		fail("replay: %v", err)
	}
	got := make([]byte, crashDB)
	st.ReadRaw(0, got)
	if bytes.Equal(got, ref) {
		return
	}
	tornOK := sc.mode == replication.Passive && sc.injectPackets > 0
	if !tornOK {
		fail("state does not match the %d-commit prefix", k)
	}
	next, err := tpc.Replay(mustDC(t), tpc.Options{Seed: sc.workSeed}, k+1)
	if err != nil {
		fail("replay k+1: %v", err)
	}
	for i := range got {
		if got[i] != ref[i] && got[i] != next[i] {
			fail("byte %d matches neither state %d nor %d", i, k, k+1)
		}
	}
}

func mustDC(t *testing.T) tpc.Workload {
	t.Helper()
	w, err := tpc.NewDebitCredit(crashDB)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRandomizedCrashPoints sweeps the full {mode} x {safety} x {backups}
// matrix with randomized crash points, pauses and co-crashed backups.
func TestRandomizedCrashPoints(t *testing.T) {
	const seed = 20260730
	iters := 150
	if testing.Short() {
		iters = 40
	}
	t.Logf("crashpoint seed %d, %d iterations", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < iters; iter++ {
		runScenario(t, iter, drawScenario(rng))
	}
}

// repairScenario is one randomized crash-during-repair configuration: a
// backup dies, an online repair starts, and the primary or the joining
// backup is killed with the state transfer still in flight.
type repairScenario struct {
	safety       replication.Safety
	backups      int
	preCommits   int
	midCommits   int
	crashJoiner  bool // kill the joiner mid-transfer instead of the primary
	settleBefore bool // settle before the final crash (closes the 1-safe window)
	workSeed     uint64
}

// runRepairScenario executes the scenario and checks that the committed-
// prefix and quorum zero-loss properties hold in every interleaving.
func runRepairScenario(t *testing.T, iter int, sc repairScenario) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("iter %d %+v: "+format, append([]any{iter, sc}, args...)...)
	}

	g, err := replication.NewGroup(replication.Config{
		Mode:    replication.Active,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: crashDB},
		Backups: sc.backups,
		Safety:  sc.safety,
	})
	if err != nil {
		fail("build: %v", err)
	}
	w, err := tpc.NewDebitCredit(crashDB)
	if err != nil {
		fail("workload: %v", err)
	}
	if err := w.Populate(g.Load); err != nil {
		fail("populate: %v", err)
	}
	r := tpc.NewRand(sc.workSeed)
	txn := 0
	commit := func() {
		tx, err := g.Begin()
		if err != nil {
			fail("begin %d: %v", txn, err)
		}
		if err := w.Txn(r, tx, int64(txn)); err != nil {
			fail("txn %d: %v", txn, err)
		}
		if err := tx.Commit(); err != nil {
			fail("commit %d: %v", txn, err)
		}
		txn++
	}

	for i := 0; i < sc.preCommits; i++ {
		commit()
	}
	g.Settle(g.QuiesceGrace())
	victim := sc.backups - 1
	if err := g.PowerFailNode(victim); err != nil {
		fail("power-fail backup: %v", err)
	}
	if err := g.RepairAsync(); err != nil {
		fail("repair async: %v", err)
	}
	joiner := sc.backups - 1 // the fresh node takes the freed slot
	for i := 0; i < sc.midCommits; i++ {
		commit()
	}
	if st := g.RepairStatus(); !st.Active {
		fail("transfer finished before the crash point (need a mid-flight crash)")
	}

	if sc.crashJoiner {
		// The joining backup dies mid-transfer: the group must shrug it
		// off, re-join it by a full transfer (its copy is fuzzy), and
		// lose nothing.
		if err := g.CrashBackup(joiner); err != nil {
			fail("crash joiner: %v", err)
		}
		for i := 0; i < 5; i++ {
			commit()
		}
		if err := g.Repair(); err != nil {
			fail("re-repair after joiner crash: %v", err)
		}
		g.Settle(g.QuiesceGrace())
		if err := g.Crash(); err != nil {
			fail("crash: %v", err)
		}
		st, err := g.Failover()
		if err != nil {
			fail("failover: %v", err)
		}
		if got := st.Committed(); got != uint64(txn) {
			fail("settled failover after re-repair lost commits: %d of %d", got, txn)
		}
		return
	}

	// The primary dies with the transfer in flight: the mid-join replica
	// holds a fuzzy copy and must never serve; promotion picks an intact
	// survivor and the recovered state is exactly a committed prefix.
	if sc.settleBefore {
		g.Settle(g.QuiesceGrace())
	}
	if err := g.Crash(); err != nil {
		fail("crash: %v", err)
	}
	st, err := g.Failover()
	if err != nil {
		fail("failover: %v", err)
	}
	k := int64(st.Committed())
	n := int64(txn)
	if k > n {
		fail("recovered %d commits, primary did %d", k, n)
	}
	floor := n - crashWindow
	if sc.settleBefore || sc.safety == replication.QuorumSafe {
		// Every commit was quorum-acked by intact replicas (the joiner
		// never acks before cut-over), so zero loss is guaranteed even
		// without a settling grace.
		floor = n
	}
	if floor < 0 {
		floor = 0
	}
	if k < floor {
		fail("recovered %d commits, acked floor is %d", k, floor)
	}
	ref, err := tpc.Replay(mustDC(t), tpc.Options{Seed: sc.workSeed}, k)
	if err != nil {
		fail("replay: %v", err)
	}
	got := make([]byte, crashDB)
	st.ReadRaw(0, got)
	if !bytes.Equal(got, ref) {
		fail("recovered state does not match the %d-commit prefix", k)
	}
}

// TestCrashDuringRepairRandomized hammers the online repair with crashes
// landing mid-transfer: the primary or the joining backup dies while the
// chunked copy is in flight, across randomized commit counts, safety
// levels and crash points. The committed-prefix property and the quorum
// zero-loss property must hold in every interleaving.
func TestCrashDuringRepairRandomized(t *testing.T) {
	const seed = 77001122
	iters := 60
	if testing.Short() {
		iters = 20
	}
	t.Logf("crash-during-repair seed %d, %d iterations", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < iters; iter++ {
		sc := repairScenario{
			safety:       replication.OneSafe,
			backups:      2 + rng.Intn(2),
			preCommits:   10 + rng.Intn(40),
			midCommits:   1 + rng.Intn(40),
			crashJoiner:  rng.Intn(2) == 0,
			settleBefore: rng.Intn(2) == 0,
			workSeed:     uint64(rng.Int63()) | 1,
		}
		if rng.Intn(2) == 0 {
			// Quorum needs ceil((K+1)/2) ackers among the intact
			// replicas while one is mid-join: K=3 with one joiner
			// leaves exactly the 2 required.
			sc.safety = replication.QuorumSafe
			sc.backups = 3
		}
		runRepairScenario(t, iter, sc)
	}
}

// TestQuorumCrashRandomized is the acceptance property hammered on its
// own: QuorumSafe with three backups survives the crash of the primary
// plus one backup with zero acked-commit loss, across randomized commit
// counts, crash victims and workload seeds.
func TestQuorumCrashRandomized(t *testing.T) {
	const seed = 424242
	const iters = 120
	t.Logf("quorum crashpoint seed %d, %d iterations", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < iters; iter++ {
		sc := crashScenario{
			mode:         replication.Active,
			safety:       replication.QuorumSafe,
			backups:      3,
			commits:      10 + rng.Intn(60),
			settle:       false,
			crashBackups: []int{rng.Intn(3)},
			workSeed:     uint64(rng.Int63()) | 1,
		}
		runScenario(t, iter, sc)
	}
}
