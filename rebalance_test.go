package repro_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/sim"
)

// elasticConfig is the deployment template the rebalance tests share:
// quorum commits over three-way replication, so a crashed primary never
// takes an acknowledged write with it.
func elasticConfig(dbSize int, metrics bool) repro.Config {
	return repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  dbSize,
		Backups: 2,
		Safety:  repro.QuorumSafe,
		Metrics: metrics,
	}
}

// shadowFill loads a deterministic pattern and returns the in-memory
// shadow copy the tests audit against.
func shadowFill(t *testing.T, sc *repro.ShardedCluster, dbSize int, seed int64) []byte {
	t.Helper()
	shadow := make([]byte, dbSize)
	rand.New(rand.NewSource(seed)).Read(shadow)
	const chunk = 256 << 10
	for off := 0; off < dbSize; off += chunk {
		end := off + chunk
		if end > dbSize {
			end = dbSize
		}
		if err := sc.Load(off, shadow[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	return shadow
}

// shadowAudit compares the whole database against the shadow copy.
func shadowAudit(t *testing.T, sc *repro.ShardedCluster, shadow []byte, phase string) {
	t.Helper()
	got := make([]byte, len(shadow))
	sc.ReadRaw(0, got)
	if !bytes.Equal(got, shadow) {
		for i := range got {
			if got[i] != shadow[i] {
				t.Fatalf("%s: first divergence at offset %d (shard %d): got %#x want %#x",
					phase, i, sc.ShardFor(i), got[i], shadow[i])
			}
		}
	}
}

// shadowTxn commits one 64-byte write at off, mirrored into the shadow.
func shadowTxn(t *testing.T, sc *repro.ShardedCluster, shadow []byte, r *rand.Rand, off int) {
	t.Helper()
	var val [64]byte
	r.Read(val[:])
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(off, len(val)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(off, val[:]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(shadow[off:], val[:])
}

// TestAddedShardStartsAtTheDeploymentsElapsed: a shard added mid-run
// starts its measured interval level with the deployment's, so the work
// a rebalance moves onto it is charged from that instant, not from zero.
func TestAddedShardStartsAtTheDeploymentsElapsed(t *testing.T) {
	const dbSize = 1 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, dbSize)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		shadowTxn(t, sc, shadow, r, r.Intn(dbSize/64)*64)
	}
	before := sc.Elapsed()
	ids, err := sc.AddShards(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Elapsed(); got != before {
		t.Fatalf("AddShards moved the deployment's Elapsed %v -> %v", before, got)
	}
	for _, id := range ids {
		if got := sc.Shard(id).Elapsed(); got != before {
			t.Errorf("added shard %d starts at %v, want the deployment's %v", id, got, before)
		}
	}
}

// TestRebalanceGrowMovesData: the tentpole end to end — grow 2→4, a
// blocking Rebalance, and a byte-exact audit that the moved ranges
// carried every committed write with them. Routing, tokens, and the
// instruments all reflect the new placement.
func TestRebalanceGrowMovesData(t *testing.T) {
	const dbSize = 1 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, true), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
	}
	oldToken := sc.Token(nil)

	ids, err := sc.AddShards(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("AddShards ids = %v", ids)
	}
	if sc.Shards() != 4 {
		t.Fatalf("Shards() = %d after AddShards", sc.Shards())
	}
	if sc.PlacementEpoch() != 1 {
		t.Fatalf("epoch %d moved before Rebalance", sc.PlacementEpoch())
	}
	if err := sc.Rebalance(); err != nil {
		t.Fatal(err)
	}
	prog := sc.RebalanceProgress()
	if prog.Active || prog.MovesDone != prog.Moves || prog.Moves == 0 {
		t.Fatalf("progress after sync rebalance: %+v", prog)
	}
	// Every page was loaded, the added shards never wrote, and nothing
	// writes during the blocking drive: each moved page ships once.
	if prog.BytesShipped != prog.BytesTotal || prog.BytesTotal == 0 {
		t.Fatalf("shipped %d of %d planned bytes", prog.BytesShipped, prog.BytesTotal)
	}
	if got := sc.PlacementEpoch(); got != uint64(1+prog.Moves) {
		t.Fatalf("epoch %d after %d cut-overs", got, prog.Moves)
	}
	shadowAudit(t, sc, shadow, "post-rebalance")

	// The new shards now own real ranges and serve reads and writes.
	onNew := 0
	for off := 0; off < dbSize; off += 4096 {
		if s := sc.ShardFor(off); s >= 2 {
			onNew++
		}
	}
	if onNew == 0 {
		t.Fatal("no range routed to the added shards")
	}
	for i := 0; i < 64; i++ {
		shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
	}
	sc.Settle()
	shadowAudit(t, sc, shadow, "post-rebalance writes")

	// A token minted on the 2-shard deployment stays valid: the missing
	// shards are unconstrained.
	buf := make([]byte, 512)
	if _, err := sc.ReadAt(0, buf, repro.ReadOpts{Token: oldToken}); err != nil {
		t.Fatalf("pre-rebalance token rejected: %v", err)
	}

	// Instruments: the migration counters and ring events fired.
	snap := sc.Metrics()
	if snap.Counter("place.ranges_moved") != uint64(prog.Moves) {
		t.Fatalf("place.ranges_moved = %d, want %d", snap.Counter("place.ranges_moved"), prog.Moves)
	}
	if snap.Counter("place.bytes_shipped") == 0 {
		t.Fatal("place.bytes_shipped = 0")
	}
	if snap.Gauge("place.epoch") != int64(sc.PlacementEpoch()) {
		t.Fatalf("place.epoch gauge = %d, want %d", snap.Gauge("place.epoch"), sc.PlacementEpoch())
	}
	for _, kind := range []string{obs.EventRebalanceStart, obs.EventRangeCutover, obs.EventRebalanceDone} {
		if len(snap.EventsKind(kind)) == 0 {
			t.Fatalf("no %s event in the merged snapshot", kind)
		}
	}
	// The moved bytes were charged to the sources' SANs as sync-category
	// traffic.
	if tr := sc.NetTraffic(); tr.SyncBytes < prog.BytesShipped {
		t.Fatalf("SyncBytes %d below shipped %d", tr.SyncBytes, prog.BytesShipped)
	}
}

// TestRebalanceBlockingBesideAWriter: a blocking 2→4 Rebalance on one
// goroutine beside a committing writer on another. The mover draws on the
// source group's copier budget (Group.MoveBudget), which the writer's
// commits pay from too, and copies the paid pages between the two groups,
// so under -race this is the probe for anything the mover touches outside
// a group's lock; the audit is that no write was lost to a cut-over.
func TestRebalanceBlockingBesideAWriter(t *testing.T) {
	const dbSize = 2 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 5)
	if _, err := sc.AddShards(2); err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() { moved <- sc.Rebalance() }()
	r := rand.New(rand.NewSource(6))
	for done := false; !done; {
		select {
		case err := <-moved:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
		}
	}
	if sc.PlacementEpoch() == 1 {
		t.Fatal("placement epoch never advanced")
	}
	sc.Settle()
	shadowAudit(t, sc, shadow, "blocking rebalance beside a writer")
}

// TestRebalanceAsyncRidesCommitStream: an asynchronous rebalance makes
// paced progress purely from the foreground commit stream, transactions
// keep committing on every shard throughout, and the final placement
// carries every committed byte.
func TestRebalanceAsyncRidesCommitStream(t *testing.T) {
	const dbSize = 512 << 10
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 3)
	if _, err := sc.AddShards(2); err != nil {
		t.Fatal(err)
	}
	if err := sc.RebalanceAsync(); err != nil {
		t.Fatal(err)
	}
	if err := sc.RebalanceAsync(); !errors.Is(err, repro.ErrRebalanceActive) {
		t.Fatalf("second RebalanceAsync = %v, want ErrRebalanceActive", err)
	}
	if _, err := sc.AddShards(1); !errors.Is(err, repro.ErrRebalanceActive) {
		t.Fatalf("AddShards during rebalance = %v, want ErrRebalanceActive", err)
	}

	r := rand.New(rand.NewSource(4))
	var lastShipped int64
	progressed := false
	for i := 0; i < 100000 && sc.RebalanceProgress().Active; i++ {
		shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
		if p := sc.RebalanceProgress(); p.BytesShipped > lastShipped {
			progressed = true
			lastShipped = p.BytesShipped
		}
	}
	if !progressed {
		t.Fatal("commit stream never pumped the mover")
	}
	if sc.RebalanceProgress().Active {
		// The stream alone didn't finish it in bounded iterations; the
		// blocking form adopts and completes the active plan.
		if err := sc.Rebalance(); err != nil {
			t.Fatal(err)
		}
	}
	sc.Settle()
	if sc.PlacementEpoch() == 1 {
		t.Fatal("placement epoch never advanced")
	}
	shadowAudit(t, sc, shadow, "async rebalance")
}

// TestRebalanceCrashDuringMove is the randomized crash suite: while a
// 2→4 rebalance is mid-move, the source primary or the migration target
// dies; after failover + repair the rebalance resumes from the fence and
// completes with zero acknowledged-write loss (quorum commits).
func TestRebalanceCrashDuringMove(t *testing.T) {
	const dbSize = 512 << 10
	crashes := 0
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
		if err != nil {
			t.Fatal(err)
		}
		shadow := shadowFill(t, sc, dbSize, 200+seed)
		for i := 0; i < 32; i++ {
			shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
		}
		if _, err := sc.AddShards(2); err != nil {
			t.Fatal(err)
		}
		if err := sc.RebalanceAsync(); err != nil {
			t.Fatal(err)
		}
		// Pump from the commit stream until the mover is mid-move with
		// bytes on the wire.
		for i := 0; i < 50000; i++ {
			p := sc.RebalanceProgress()
			if !p.Active {
				break
			}
			if p.CurrentFrom >= 0 && p.BytesShipped > 0 {
				break
			}
			shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
		}
		p := sc.RebalanceProgress()
		if p.Active && p.CurrentFrom >= 0 {
			crashes++
			// Kill one end of the in-flight move, randomly.
			victim := p.CurrentFrom
			if r.Intn(2) == 1 {
				victim = p.CurrentTo
			}
			if err := sc.Shard(victim).CrashPrimary(); err != nil {
				t.Fatalf("seed %d: crash shard %d: %v", seed, victim, err)
			}
			// The mover parks on the dead group; a blocking Rebalance
			// surfaces that as ErrCrashed without losing the plan.
			if err := sc.Rebalance(); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("seed %d: parked rebalance = %v, want ErrCrashed", seed, err)
			}
			if err := sc.Shard(victim).Failover(); err != nil {
				t.Fatalf("seed %d: failover shard %d: %v", seed, victim, err)
			}
			if err := sc.Shard(victim).Repair(); err != nil {
				t.Fatalf("seed %d: repair shard %d: %v", seed, victim, err)
			}
		}
		if err := sc.Rebalance(); err != nil {
			t.Fatalf("seed %d: resumed rebalance: %v", seed, err)
		}
		sc.Settle()
		shadowAudit(t, sc, shadow, "post-crash rebalance")
		// The deployment still serves transactions on every range.
		for i := 0; i < 32; i++ {
			shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
		}
		sc.Settle()
		shadowAudit(t, sc, shadow, "post-crash writes")
	}
	if crashes == 0 {
		t.Fatal("no seed ever caught the mover mid-move; the crash path went untested")
	}
}

// TestRemoveShardDrains: draining re-homes every range onto the
// survivors, the tombstoned id stays valid for indexing but owns
// nothing, and the data survives byte-exact.
func TestRemoveShardDrains(t *testing.T) {
	const dbSize = 1 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 5)
	// Grow to 4 and rebalance so the newcomers own ranges and shard 0
	// has free slots to absorb a drain.
	if _, err := sc.AddShards(2); err != nil {
		t.Fatal(err)
	}
	if err := sc.Rebalance(); err != nil {
		t.Fatal(err)
	}
	shadowAudit(t, sc, shadow, "post-grow")

	if err := sc.RemoveShard(3); err != nil {
		t.Fatal(err)
	}
	if sc.Shards() != 4 {
		t.Fatalf("Shards() = %d: a tombstone must keep its slot", sc.Shards())
	}
	for off := 0; off < dbSize; off += 4096 {
		if sc.ShardFor(off) == 3 {
			t.Fatalf("offset %d still routed to the removed shard", off)
		}
	}
	shadowAudit(t, sc, shadow, "post-remove")
	if err := sc.RemoveShard(3); !errors.Is(err, repro.ErrNoSuchShard) {
		t.Fatalf("double remove = %v, want ErrNoSuchShard", err)
	}
	if err := sc.RemoveShard(9); !errors.Is(err, repro.ErrNoSuchShard) {
		t.Fatalf("out-of-range remove = %v, want ErrNoSuchShard", err)
	}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 64; i++ {
		shadowTxn(t, sc, shadow, r, r.Intn(dbSize-64))
	}
	sc.Settle()
	shadowAudit(t, sc, shadow, "post-remove writes")
	// Tokens still index all four slots.
	if tok := sc.Token(nil); len(tok) != 4 {
		t.Fatalf("token length %d", len(tok))
	}
}

// TestRemoveShardBeforeRebalance: a shard added and removed again before
// any Rebalance owns nothing, so its drain ships nothing and cuts nothing
// over; the next Rebalance gives the other added shard its share of the
// pages and the removed id none, and every byte survives.
func TestRemoveShardBeforeRebalance(t *testing.T) {
	const dbSize = 1 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 9)
	ids, err := sc.AddShards(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.RemoveShard(ids[1]); err != nil {
		t.Fatal(err)
	}
	if p := sc.RebalanceProgress(); sc.PlacementEpoch() != 1 || p.Moves != 0 || p.BytesShipped != 0 {
		t.Fatalf("removing an empty shard moved data: epoch %d, progress %+v", sc.PlacementEpoch(), p)
	}
	if err := sc.Rebalance(); err != nil {
		t.Fatal(err)
	}
	pages := make([]int, sc.Shards())
	for off := 0; off < dbSize; off += 4096 {
		pages[sc.ShardFor(off)]++
	}
	// Three serving shards: half of a third of the pages is a share
	// whichever way the planner rounds.
	if pages[ids[1]] != 0 || pages[ids[0]] < dbSize/4096/6 {
		t.Fatalf("pages per shard %v: added shard %d wants its share, removed shard %d none", pages, ids[0], ids[1])
	}
	shadowAudit(t, sc, shadow, "rebalanced after removing an added shard")
}

// TestShardForStaysInTheDeployment: an offset at or past Capacity has no
// owner, and ShardFor pins it to the last shard, as a rebalanced
// deployment does, rather than answering an index outside [0, Shards()).
func TestShardForStaysInTheDeployment(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sc := newSharded(t, shards)
		for _, off := range []int{sc.Capacity(), 2 * sc.Capacity()} {
			if got := sc.ShardFor(off); got != sc.Shards()-1 {
				t.Fatalf("%d shards: ShardFor(%d) = %d, want the last shard %d", shards, off, got, sc.Shards()-1)
			}
		}
	}
}

// TestElasticDegenerate: the static layout is the degenerate
// single-epoch ring — without elastic calls the routing is bit-for-bit
// the fixed off/ShardSize arithmetic. A Shard(i) view refuses the elastic
// surface (its topology is its parent's); a deployment built by New does
// not — it grows online and reads back every byte.
func TestElasticDegenerate(t *testing.T) {
	sc := newSharded(t, 3)
	if sc.PlacementEpoch() != 1 {
		t.Fatalf("fresh epoch = %d", sc.PlacementEpoch())
	}
	for _, off := range []int{0, 1, 4095, 4096, testDB / 2, testDB - 1} {
		if got, want := sc.ShardFor(off), off/sc.ShardSize(); got != want {
			t.Fatalf("ShardFor(%d) = %d, want the uniform %d", off, got, want)
		}
	}
	if p := sc.RebalanceProgress(); p.Active || p.CurrentFrom != -1 || p.CurrentTo != -1 {
		t.Fatalf("idle progress = %+v", p)
	}
	if err := sc.Rebalance(); err != nil {
		t.Fatalf("no-op rebalance = %v", err)
	}
	if _, err := sc.AddShards(0); !errors.Is(err, repro.ErrShardCount) {
		t.Fatalf("AddShards(0) = %v", err)
	}

	view := sc.Shard(1)
	if _, err := view.AddShards(1); !errors.Is(err, repro.ErrNotElastic) {
		t.Fatalf("view.AddShards = %v", err)
	}
	if err := view.RemoveShard(0); !errors.Is(err, repro.ErrNotElastic) {
		t.Fatalf("view.RemoveShard = %v", err)
	}
	if err := view.Rebalance(); !errors.Is(err, repro.ErrNotElastic) {
		t.Fatalf("view.Rebalance = %v", err)
	}
	if view.Shards() != 1 || view.DBSize() != sc.ShardSize() || view.PlacementEpoch() != 1 {
		t.Fatalf("view = %d shards, %d bytes, epoch %d", view.Shards(), view.DBSize(), view.PlacementEpoch())
	}

	c, err := repro.New(repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, DBSize: testDB})
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, c, testDB, 7)
	ids, err := c.AddShards(1)
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("New deployment AddShards = %v, %v", ids, err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatalf("New deployment Rebalance = %v", err)
	}
	if c.Shards() != 2 || c.PlacementEpoch() == 1 {
		t.Fatalf("grown deployment = %d shards, epoch %d", c.Shards(), c.PlacementEpoch())
	}
	shadowAudit(t, c, shadow, "New deployment grown 1 -> 2")
}

// TestViewCommitsSurviveCutover: a Shard(0) view commits straight onto the
// replica group, past the parent's router, and the mover sees those writes
// like any other — the deployment serves the last bytes the view committed
// before the cell's range cut over. A scout run names the first range to
// leave shard 0 (whose local offsets are the global ones until then); a
// fresh deployment then rewrites a cell of it through the view, one parent
// transaction on the other half per step to pump the mover, until routing
// flips.
func TestViewCommitsSurviveCutover(t *testing.T) {
	const dbSize = 512 << 10
	grown := func(metrics bool) *repro.ShardedCluster {
		sc, err := repro.NewSharded(elasticConfig(dbSize, metrics), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.AddShards(2); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	scout := grown(true)
	if err := scout.Rebalance(); err != nil {
		t.Fatal(err)
	}
	cell := -1
	for _, e := range scout.Metrics().EventsKind(obs.EventRangeCutover) {
		if int(e.B) < scout.ShardSize() {
			cell = int(e.B)
			break
		}
	}
	if cell < 0 {
		t.Fatal("the scout rebalance moved no range off shard 0")
	}

	sc := grown(false)
	if err := sc.RebalanceAsync(); err != nil {
		t.Fatal(err)
	}
	view, shadow, r := sc.Shard(0), make([]byte, dbSize), rand.New(rand.NewSource(7))
	for k := 0; sc.ShardFor(cell) == 0; k++ {
		if k == 100000 {
			t.Fatal("the cell's range never cut over")
		}
		shadowTxn(t, view, shadow, r, cell)
		shadowTxn(t, sc, shadow, r, dbSize/2+r.Intn(dbSize/2-64))
	}
	shadowAudit(t, sc, shadow, "view commits through a cut-over")
}

// TestMoverBesideWritersAndLoads: a blocking 2→4 Rebalance and a
// RemoveShard beside four transactional writers (one commit in four is an
// abort instead) and one raw Loader. Each worker owns its own 64-byte cells
// of every page and touches two cells of one page per step, so a
// transaction stays on one shard and the shared shadow is written at
// disjoint bytes. The mover holds no transaction while it copies and a Load
// holds none at all: whatever lands on a moving range between the mover's
// read and the flip must be shipped again, and the audit is byte-exact.
func TestMoverBesideWritersAndLoads(t *testing.T) {
	const (
		dbSize  = 512 << 10
		cell    = 64
		workers = 5 // the last one is the Loader
		owned   = 4096 / cell / workers
	)
	for seed := int64(0); seed < 6; seed++ {
		sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
		if err != nil {
			t.Fatal(err)
		}
		shadow := shadowFill(t, sc, dbSize, 300+seed)
		if _, err := sc.AddShards(2); err != nil {
			t.Fatal(err)
		}
		step := func(w, i int, r *rand.Rand) error {
			a := r.Intn(owned)
			page, slots := r.Intn(dbSize/4096)*4096, [2]int{a, (a + 1 + r.Intn(owned-1)) % owned}
			var offs [2]int
			var vals [2][cell]byte
			for j, slot := range slots {
				offs[j] = page + (w+workers*slot)*cell
				r.Read(vals[j][:])
			}
			keep := w == workers-1 || i%4 != 3
			if w == workers-1 {
				if err := errors.Join(sc.Load(offs[0], vals[0][:]), sc.Load(offs[1], vals[1][:])); err != nil {
					return err
				}
			} else {
				tx, err := sc.Begin()
				if err != nil {
					return err
				}
				for j, off := range offs {
					if err := errors.Join(tx.SetRange(off, cell), tx.Write(off, vals[j][:])); err != nil {
						return err
					}
				}
				if keep {
					err = tx.Commit()
				} else {
					err = tx.Abort()
				}
				if err != nil {
					return err
				}
			}
			for j := 0; keep && j < len(offs); j++ {
				copy(shadow[offs[j]:], vals[j][:])
			}
			return nil
		}
		stop, started := make(chan struct{}), make(chan struct{}, workers)
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*workers + int64(w)))
				for i := 0; ; i++ {
					if err := step(w, i, r); err != nil {
						errs <- err
						return
					}
					select {
					case <-stop:
						return
					case started <- struct{}{}:
					default:
					}
				}
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-started
		}
		err = errors.Join(sc.Rebalance(), sc.RemoveShard(3))
		close(stop)
		wg.Wait()
		close(errs)
		for werr := range errs {
			err = errors.Join(err, werr)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.PlacementEpoch() == 1 {
			t.Fatalf("seed %d: placement epoch never advanced", seed)
		}
		sc.Settle()
		shadowAudit(t, sc, shadow, "mover beside writers and loads")
	}
}

// TestRepairAndMoveShareOneBudget: a range move out of shard 0 and a repair
// of shard 0 draw on the group's one copier budget, so together they charge
// shard 0's link no faster than a lone repair does — half its full-packet
// bandwidth, plus the packet a pump may carry — as TwoJoinersShareOneBudget
// holds two joiners to it.
func TestRepairAndMoveShareOneBudget(t *testing.T) {
	const dbSize = 8 << 20
	cfg := elasticConfig(dbSize, false)
	cfg.Backups = 3 // a quorum of two outlives the crashed backup
	sc, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFill(t, sc, dbSize, 11)
	if _, err := sc.AddShards(1); err != nil {
		t.Fatal(err)
	}
	if err := sc.RebalanceAsync(); err != nil {
		t.Fatal(err)
	}
	src := sc.Shard(0)
	if err := errors.Join(src.CrashBackup(1), src.RepairAsync()); err != nil {
		t.Fatal(err)
	}
	base, start := src.NetTraffic().SyncBytes, src.Elapsed()
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		if off := r.Intn(dbSize - 64); sc.ShardFor(off) == 0 {
			shadowTxn(t, sc, shadow, r, off)
		}
	}
	// The joiners are paid first: the move gets what they leave.
	move, repair := sc.RebalanceProgress(), src.RepairProgress()
	if !move.Active || !repair.Active || repair.BytesShipped == 0 {
		t.Fatalf("both copies must be in flight through the interval: move %+v, repair %+v", move, repair)
	}
	p := sim.Default()
	share := 0.5 * float64(p.MaxPacket) / float64(p.PacketTime(p.MaxPacket))
	elapsed := src.Elapsed() - start
	bought := float64(sim.Dur(elapsed.Nanoseconds())*sim.Nanosecond) * share
	shipped := src.NetTraffic().SyncBytes - base
	ratio := float64(shipped) / bought
	t.Logf("move (%d B copied) and repair (%d B) charged %d bytes in %v: %.3f of one copier's share",
		move.BytesShipped, repair.BytesShipped, shipped, elapsed, ratio)
	if float64(shipped) > bought+float64(p.MaxPacket) {
		t.Fatalf("move and repair charged %.2f× one copier's share of shard 0's link", ratio)
	}
	if err := errors.Join(src.Repair(), sc.Rebalance()); err != nil {
		t.Fatal(err)
	}
	sc.Settle()
	shadowAudit(t, sc, shadow, "move beside a repair")
}

// TestSparseMoveClearsStalePartitions: a move's first pass ships only the
// pages either end ever wrote, and the target's end counts — a partition a
// range moved away from keeps that range's bytes, and a range landing there
// later must overwrite with zeros the pages its own source never wrote. One
// page of each partition is written, a different page from partition to
// partition, so the drain after a grow lands ranges on partitions that hold
// another range's bytes at pages the landing range lacks.
func TestSparseMoveClearsStalePartitions(t *testing.T) {
	const dbSize = 1 << 20
	sc, err := repro.NewSharded(elasticConfig(dbSize, false), 2)
	if err != nil {
		t.Fatal(err)
	}
	shadow, r := make([]byte, dbSize), rand.New(rand.NewSource(21))
	part := sc.PartSize()
	for off := 0; off < dbSize; off += part {
		at := off + (off/part)%7*4096
		r.Read(shadow[at : at+64])
		if err := sc.Load(at, shadow[at:at+64]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.AddShards(1); err != nil {
		t.Fatal(err)
	}
	if err := sc.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if p := sc.RebalanceProgress(); p.BytesShipped >= p.BytesTotal {
		t.Fatalf("the grow shipped %d of %d bytes: the moved ranges are not sparse", p.BytesShipped, p.BytesTotal)
	}
	shadowAudit(t, sc, shadow, "grown")
	if err := sc.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	shadowAudit(t, sc, shadow, "drained onto vacated partitions")
}
