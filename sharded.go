package repro

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Cluster is one deployment: a database striped across N independent
// replica groups, each a primary transaction server feeding its backups
// through the modelled SAN. New builds the paper's system, N = 1;
// NewSharded any N. At construction shard i owns database offsets
// [i*ShardSize, (i+1)*ShardSize); every deployment is elastic, so
// AddShards + Rebalance (or RemoveShard) later re-home partition-aligned
// ranges onto other groups while the deployment serves — see
// rebalance.go. Each shard has its own primary, backups, SAN link and
// simulated clocks, so the shards progress in parallel and aggregate
// throughput scales with the shard count.
//
// Operations are routed by offset through a versioned placement table
// (internal/placement): readers load the current table through an atomic
// pointer — no locks on the hot path — and a rebalance publishes a new
// version only at each range's cut-over. Ranges spanning an ownership
// boundary are split. A transaction that touches several shards commits
// on each touched shard independently, in shard order — there is no
// cross-shard atomic commit (the paper's API leaves concurrency control,
// and a fortiori distributed commit, to a separate layer): a shard whose
// commit fails is named in the error, the shards before it have
// committed and the ones after it are rolled back.
//
// # Concurrency
//
// A Cluster may be driven from many goroutines at once: every
// transaction-handle call and every management call briefly holds the
// owning replica group's mutex. One transaction is in flight per shard —
// the paper's single-stream engine — and transactions on different
// shards run genuinely in parallel: wall-clock throughput scales with
// min(shards, GOMAXPROCS). A transaction holds every shard it has touched
// until Commit/Abort, acquiring shards in the order it first touches
// them; concurrent multi-shard transactions must touch shards in a
// consistent (ascending) order or risk deadlock, exactly like any
// ordered-locking scheme. CrashPrimary may land in the middle of an open
// transaction exactly as on real hardware: the dead transaction's
// remaining calls fail with ErrCrashed and failover rolls it back.
// Aggregate readers (Stats, Committed, NetTraffic, Elapsed) sample atomic
// counters and never block the shards.
type Cluster struct {
	cfg       Config
	shardSize int
	partSize  int // the placement partition, fixed by shardSize
	dbSize    int

	// view is the atomically published routing state: the shard list and
	// the placement table, swapped together so a reader's (shards, table)
	// pair is always consistent. Hot paths load it once per span and
	// compare table pointers — not epochs — to detect a cut-over that
	// raced their shard acquisition.
	view atomic.Pointer[placeView]

	// admin serializes topology mutation (AddShards, RemoveShard, the
	// planning half of Rebalance) and guards layout. A Shard(i) view has
	// no layout: its topology is its parent's.
	admin  sync.Mutex
	layout *placement.Layout

	// mig is the range mover's state; see rebalance.go.
	mig migState

	// loads is held shared by a raw Load and exclusively by a cut-over from
	// its last dirty scan to the flip: a Load bypasses the transaction slot
	// the barrier holds. A Shard(i) view shares its parent's.
	loads *sync.RWMutex

	// reg is the deployment-level metrics registry (rebalance
	// instruments and ring events live here; per-shard registries hang
	// off the members). Nil with Config.Metrics off.
	reg     *obs.Registry
	mRanges *obs.Counter
	mBytes  *obs.Counter
	mStalls *obs.Counter
	mEpoch  *obs.Gauge

	// txPool recycles shardedTx values (with their per-shard open tables)
	// across Begin/Commit cycles so the steady-state transaction path
	// allocates nothing. The usual pool hazard applies: a Tx must not be
	// used after Commit/Abort.
	txPool sync.Pool
}

// ShardedCluster is the name NewSharded's result has carried since the
// sharded front-end was a type of its own.
type ShardedCluster = Cluster

// placeView is one immutable routing snapshot: the shard list (tombstoned
// slots included, so shard ids index it forever) plus the placement table
// mapping global offsets onto it.
type placeView struct {
	shards []*member
	table  *placement.Table
}

// v returns the current routing snapshot.
func (c *Cluster) v() *placeView { return c.view.Load() }

// shardAlign keeps shard sizes page-friendly.
const shardAlign = 4096

// New builds the paper's deployment: one primary feeding its backups, a
// single replica group holding the whole database.
func New(cfg Config) (*Cluster, error) { return NewSharded(cfg, 1) }

// NewSharded builds a cluster of shards independent replica groups, each
// configured per cfg with a DBSize slice of the total. cfg.DBSize is the
// total database size across all shards; the per-shard slice is rounded up
// to a 4 KB multiple, so the deployment's Capacity may exceed DBSize —
// offsets are validated against the configured DBSize, and the rounding
// tail of the last shard is unused.
func NewSharded(cfg Config, shards int) (*Cluster, error) {
	if shards < 1 {
		return nil, ErrShardCount
	}
	if cfg.DBSize <= 0 {
		return nil, fmt.Errorf("repro: invalid database size %d", cfg.DBSize)
	}
	size := (cfg.DBSize + shards - 1) / shards
	size = (size + shardAlign - 1) &^ (shardAlign - 1)
	c := newCluster(cfg, size, cfg.DBSize)
	list := make([]*member, 0, shards)
	for i := 0; i < shards; i++ {
		m, err := c.newShard(i)
		if err != nil {
			return nil, err
		}
		list = append(list, m)
	}
	c.loads = new(sync.RWMutex)
	c.layout = placement.NewLayout(shards, size, 0)
	c.partSize = c.layout.PartSize()
	c.view.Store(&placeView{shards: list, table: c.layout.Compile(1)})
	if cfg.Metrics {
		c.reg = obs.NewRegistry()
		c.mRanges = c.reg.Counter("place.ranges_moved")
		c.mBytes = c.reg.Counter("place.bytes_shipped")
		c.mStalls = c.reg.Counter("place.cutover_stalls")
		c.mEpoch = c.reg.Gauge("place.epoch")
		c.mEpoch.Set(1)
	}
	return c, nil
}

// newCluster returns a router with no shards published yet (shared by
// construction and Shard).
func newCluster(cfg Config, shardSize, dbSize int) *Cluster {
	c := &Cluster{cfg: cfg, shardSize: shardSize, dbSize: dbSize}
	c.mig.curFrom.Store(-1)
	c.mig.curTo.Store(-1)
	c.txPool.New = func() any { return &shardedTx{c: c} }
	return c
}

// newShard builds replica group id from the deployment's template
// configuration (shared by construction and AddShards).
func (c *Cluster) newShard(id int) (*member, error) {
	scfg := c.cfg
	scfg.DBSize = c.shardSize
	if c.cfg.Durability.Enabled() {
		scfg.Durability.Dir = filepath.Join(c.cfg.Durability.Dir, fmt.Sprintf("shard-%03d", id))
	}
	m, err := newMember(scfg)
	if err != nil {
		return nil, fmt.Errorf("repro: shard %d: %w", id, err)
	}
	return m, nil
}

// Shards returns the shard slot count, drained tombstones included (ids
// stay valid for Token and Shard).
func (c *Cluster) Shards() int { return len(c.v().shards) }

// Safety returns the commit discipline every shard was configured with.
func (c *Cluster) Safety() Safety { return c.cfg.Safety }

// ShardSize returns the per-shard database size in bytes.
func (c *Cluster) ShardSize() int { return c.shardSize }

// PartSize returns the placement partition in bytes: the database is
// tiled by partitions of this size, each wholly on one shard at every
// placement epoch, and a rebalance moves them whole. It is a function of
// ShardSize (at least 16 page-aligned partitions per shard), so it never
// changes over the deployment's life, growth included.
func (c *Cluster) PartSize() int { return c.partSize }

// DBSize returns the configured total database size — the bound all
// offsets are validated against.
func (c *Cluster) DBSize() int { return c.dbSize }

// Capacity returns the allocated size across all shards: ShardSize times
// Shards, at least DBSize (per-shard sizes are rounded up to 4 KB).
func (c *Cluster) Capacity() int { return c.shardSize * len(c.v().shards) }

// ShardFor returns the shard currently owning database offset off, per
// the live placement table; the answer can change across a rebalance.
func (c *Cluster) ShardFor(off int) int {
	sh, _, _ := c.v().table.Locate(off)
	return sh
}

// Shard returns a one-shard view of shard i — the same replica group, not
// a copy — addressed by shard-local offsets: crash injection and recovery
// (it is the only way to name a shard to the per-group Admin methods),
// traffic inspection, or single-shard transaction streams that skip the
// routing layer. A view's writes are the parent's range mover's to see like any
// other — committed before a range's cut-over, they move with it — but the
// view itself never re-routes: past the cut-over the same local offset is
// a retired copy. The view's topology is its parent's, so AddShards,
// RemoveShard and Rebalance refuse on it with ErrNotElastic. Nil for an
// out-of-range index.
func (c *Cluster) Shard(i int) *Cluster {
	v := c.v()
	if i < 0 || i >= len(v.shards) {
		return nil
	}
	view := newCluster(c.cfg, c.shardSize, c.shardSize)
	view.partSize, view.loads = c.partSize, c.loads
	view.view.Store(&placeView{shards: v.shards[i : i+1 : i+1], table: placement.FromRanges(1, []placement.Range{{End: c.shardSize}})})
	return view
}

// checkRange validates [off, off+n) against the configured database size.
func (c *Cluster) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > c.dbSize {
		return fmt.Errorf("repro: range [%d,+%d) outside the database of %d bytes: %w", off, n, c.dbSize, ErrBounds)
	}
	return nil
}

// first returns the receiver's first replica group: the one the per-group
// Admin methods act on, and all a Shard(i) view has.
func (c *Cluster) first() *member { return c.v().shards[0] }

// split walks [off, off+n) ownership run by ownership run under one
// routing snapshot.
func (c *Cluster) split(v *placeView, off, n int, f func(shard, shardOff, n int) error) error {
	for n > 0 {
		i, so, run := v.table.Locate(off)
		cnt := run
		if cnt > n {
			cnt = n
		}
		if err := f(i, so, cnt); err != nil {
			return err
		}
		off += cnt
		n -= cnt
	}
	return nil
}

// Load installs initial content across the owning shards without charging
// simulated time, keeping every replica's copy in sync. The load lock keeps
// the routing table still under it, so the bytes land — and are stamped for
// a range mover's delta resync — on the shard that owns them.
func (c *Cluster) Load(off int, data []byte) error {
	if err := c.checkRange(off, len(data)); err != nil {
		return err
	}
	c.loads.RLock()
	defer c.loads.RUnlock()
	v := c.v()
	pos := 0
	return c.split(v, off, len(data), func(i, so, n int) error {
		err := v.shards[i].Load(so, data[pos:pos+n])
		pos += n
		return err
	})
}

// Read performs a charged, non-transactional read across the owning
// shards, serialized with each shard's transactions. A read that raced a
// cut-over retries whole against the new table, so one call never mixes
// two placement epochs.
func (c *Cluster) Read(off int, dst []byte) error {
	_, err := c.ReadAt(off, dst, ReadOpts{})
	return err
}

// ReadAt performs a charged read across the owning shards under opts'
// consistency discipline; the zero ReadOpts is exactly Read. Each
// sub-span is routed on its own shard with that shard's token element as
// the floor (a token shorter than the shard count leaves the missing
// shards unconstrained, so any token — including one minted before a
// rebalance grew the deployment — is valid on any shard). The result
// reports the last sub-span's server; when ReadOpts.Replica pins a backup
// index, the pin applies on every shard.
func (c *Cluster) ReadAt(off int, dst []byte, opts ReadOpts) (ReadResult, error) {
	if err := c.checkRange(off, len(dst)); err != nil {
		return ReadResult{}, err
	}
	for {
		var res ReadResult
		v := c.v()
		pos := 0
		err := c.split(v, off, len(dst), func(i, so, n int) error {
			var minSeq uint64
			if i < len(opts.Token) {
				minSeq = opts.Token[i]
			}
			r, err := v.shards[i].readAt(so, dst[pos:pos+n], opts, minSeq)
			pos += n
			if err != nil {
				return err
			}
			res = r
			return nil
		})
		if err != nil {
			return res, err
		}
		if c.v().table == v.table {
			return res, nil
		}
	}
}

// Token fills dst (growing it as needed) with the per-shard commit-
// sequence vector: element i is shard i's committed counter, the floor a
// ReadYourWrites read after this instant must observe. Capture it after a
// Commit returns to make that commit visible to the session's replica
// reads. Lock-free. After AddShards the vector grows; earlier (shorter)
// tokens stay valid — the missing shards are simply unconstrained.
func (c *Cluster) Token(dst Token) Token {
	v := c.v()
	n := len(v.shards)
	if cap(dst) < n {
		dst = make(Token, n)
	}
	dst = dst[:n]
	for i, m := range v.shards {
		dst[i] = m.Committed()
	}
	return dst
}

// ReadRaw copies database bytes without charging simulated time,
// serialized with each shard's transactions. It panics if the span falls
// outside the database — the DB contract.
func (c *Cluster) ReadRaw(off int, dst []byte) {
	if off < 0 || off+len(dst) > c.dbSize {
		panic(fmt.Sprintf("repro: ReadRaw [%d,+%d) outside the database of %d bytes", off, len(dst), c.dbSize))
	}
	for {
		v := c.v()
		pos := 0
		_ = c.split(v, off, len(dst), func(i, so, n int) error {
			v.shards[i].ReadRaw(so, dst[pos:pos+n])
			pos += n
			return nil
		})
		if c.v().table == v.table {
			return
		}
	}
}

// Begin opens a transaction. On a one-shard deployment it opens that
// shard's transaction on the spot — blocking until the previous
// transaction commits or aborts, and refusing with ErrCrashed,
// ErrSafetyUnavailable or ErrLeaseExpired when the group cannot serve.
// With more shards, per-shard transactions open lazily on first touch —
// taking that shard's transaction slot until the transaction completes,
// and surfacing the same sentinels there — and all touched shards commit
// (or abort) together, though not atomically across shards. The returned
// handle is recycled after Commit/Abort and must not be used past that
// point.
func (c *Cluster) Begin() (Tx, error) {
	t := c.txPool.Get().(*shardedTx)
	t.done = false
	if v := c.v(); len(v.shards) == 1 {
		if _, err := t.at(v, 0); err != nil {
			c.txPool.Put(t)
			return nil, err
		}
	}
	return t, nil
}

// shardedTx routes transactional operations by offset. A warmed
// transaction performs no allocation: the closures its methods pass to walk
// do not escape. A per-shard handle's error goes out as it came: the
// crashed sentinel is one value from the store up, so a crash that orphans
// the transaction is ErrCrashed from whichever method meets it first.
type shardedTx struct {
	c       *Cluster
	open    []replication.TxHandle
	touched int // non-nil entries of open
	done    bool
}

var _ Tx = (*shardedTx)(nil)

// at returns the transaction's handle on shard i, opening it on first
// touch. The open table grows lazily to the view's shard count (a
// rebalance may have added shards since this handle was pooled).
func (t *shardedTx) at(v *placeView, i int) (replication.TxHandle, error) {
	for len(t.open) < len(v.shards) {
		t.open = append(t.open, nil)
	}
	if t.open[i] == nil {
		tx, err := v.shards[i].Begin()
		if err != nil {
			return nil, fmt.Errorf("repro: shard %d: %w", i, err)
		}
		t.open[i] = tx
		t.touched++
	}
	return t.open[i], nil
}

// route resolves one span under the current snapshot and acquires the
// owning shard. Acquiring can block behind a cut-over barrier holding the
// shard's transaction slot; if routing flipped meanwhile, ok is false and
// the caller re-routes the span on the new table. A shard this call opened
// for nothing is released first: held idle until finish it would be a lock
// the transaction never ordered, and two transactions that waited out
// opposite moves (a grow, then a drain) would each hold what the other
// re-routes to.
func (t *shardedTx) route(off int) (tx replication.TxHandle, so, run int, ok bool, err error) {
	v := t.c.v()
	i, so, run := v.table.Locate(off)
	held := i < len(t.open) && t.open[i] != nil
	tx, err = t.at(v, i)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if t.c.v().table != v.table {
		if !held {
			tx.Abort() // untouched: its outcome is not this transaction's
			t.open[i] = nil
			t.touched--
		}
		return nil, 0, 0, false, nil
	}
	return tx, so, run, true, nil
}

// walk checks [off, off+n), then calls f once per ownership run, in order:
// the run is the span's bytes [pos, pos+cnt), at local offset so on the
// shard whose handle is tx. A run whose routing flipped while its shard was
// acquired is routed again.
func (t *shardedTx) walk(off, n int, f func(tx replication.TxHandle, so, pos, cnt int) error) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.c.checkRange(off, n); err != nil {
		return err
	}
	for pos := 0; pos < n; {
		tx, so, run, ok, err := t.route(off + pos)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cnt := min(run, n-pos)
		if err := f(tx, so, pos, cnt); err != nil {
			return err
		}
		pos += cnt
	}
	return nil
}

func (t *shardedTx) SetRange(off, n int) error {
	return t.walk(off, n, func(tx replication.TxHandle, so, _, cnt int) error { return tx.SetRange(so, cnt) })
}

func (t *shardedTx) Write(off int, src []byte) error {
	return t.walk(off, len(src), func(tx replication.TxHandle, so, pos, cnt int) error {
		return tx.Write(so, src[pos:pos+cnt])
	})
}

func (t *shardedTx) Read(off int, dst []byte) error {
	return t.walk(off, len(dst), func(tx replication.TxHandle, so, pos, cnt int) error {
		return tx.Read(so, dst[pos:pos+cnt])
	})
}

// Commit commits every touched shard in shard order. A failure is reported
// by shardErr: as is with one shard touched, naming the shard otherwise.
// The shards before a failed one have committed and the ones after it are
// rolled back — cross-shard atomicity is out of scope (see the type
// comment).
func (t *shardedTx) Commit() error { return t.finish(true) }

// Abort rolls every touched shard back.
func (t *shardedTx) Abort() error { return t.finish(false) }

// shardErr reports shard i's failure: as is when it is the only shard the
// transaction touched, naming the shard otherwise.
func (t *shardedTx) shardErr(i int, err error) error {
	if t.touched == 1 {
		return err
	}
	return fmt.Errorf("repro: shard %d: %w", i, err)
}

func (t *shardedTx) finish(commit bool) error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	c := t.c
	var firstErr, ackErr error
	for i, tx := range t.open {
		if tx == nil {
			continue
		}
		var err error
		switch {
		case commit && firstErr == nil:
			err = tx.Commit()
			if errors.Is(err, ErrSafetyUnavailable) {
				// The shard committed locally but could not collect the
				// configured acknowledgements (backups failed
				// mid-transaction): its data is durable and visible, so
				// keep committing the remaining shards and surface the
				// degradation.
				if ackErr == nil {
					ackErr = t.shardErr(i, err)
				}
				err = nil
			}
		default:
			err = tx.Abort()
		}
		if err != nil && firstErr == nil {
			firstErr = t.shardErr(i, err)
		}
	}
	clear(t.open)
	t.touched = 0
	c.txPool.Put(t)
	if c.migActive() {
		// Ride the commit stream: every completed transaction lets the
		// range mover copy what its source's copier has paid for
		// (non-blocking; skipped when another goroutine is already
		// pumping).
		c.pump(false, false)
	}
	if firstErr == nil {
		firstErr = ackErr
	}
	return firstErr
}

// Settle lets the deployment sit idle long enough for everything in
// flight to drain: any open group-commit batch flushes, pending write
// buffers reach every reachable backup, and an in-flight online repair
// keeps copying through the quiet period. The quiesce duration is derived
// from the platform constants (write-buffer drain age, posted-write
// window, link latency). A crash after Settle loses nothing; without it, a crash immediately after a
// commit may lose that commit — the paper's 1-safe window. An active
// rebalance gets a pump first, so single-stream drivers that settle
// between phases keep the mover deterministic.
func (c *Cluster) Settle() {
	if c.migActive() {
		c.pump(true, false)
	}
	for _, m := range c.v().shards {
		m.Settle(m.QuiesceGrace())
	}
}

// Flush seals and ships every shard's open group-commit batch (see
// Config.CommitBatch and DeferAcks); a no-op when nothing is pending —
// which includes "a crash already dropped it": see DB.Flush.
func (c *Cluster) Flush() error { return c.eachShard((*member).Flush) }

// eachShard runs f on every shard and returns the first failure, naming
// its shard (see each).
func (c *Cluster) eachShard(f func(*member) error) error { return each(c.v().shards, f) }

// each returns the first failure but a later worse one: a degraded shard
// must not hide another's crash, whose lost commits would pass as durable.
func each(shards []*member, f func(*member) error) error {
	var firstErr error
	for i, m := range shards {
		if err := f(m); err != nil && (firstErr == nil || errors.Is(firstErr, ErrSafetyUnavailable) && !errors.Is(err, ErrSafetyUnavailable)) {
			firstErr = fmt.Errorf("repro: shard %d: %w", i, err)
		}
	}
	return firstErr
}

// AckScope is an open acknowledgement-deferral scope (see DB.DeferAcks).
type AckScope struct {
	shards []*member // the shards the scope opened on
}

// DeferAcks opens an acknowledgement-deferral scope on every current
// shard; a shard added while it is open is outside it.
func (c *Cluster) DeferAcks() AckScope {
	shards := c.v().shards
	for _, m := range shards {
		m.Defer()
	}
	return AckScope{shards: shards}
}

// Seal closes the scope: every shard's open batch is published, its
// acknowledgement left in flight and, on a durable deployment, its WAL
// synced, once. ErrSafetyUnavailable means what it means from Commit: committed
// on the serving node, acknowledgement discipline not met. ErrCrashed
// means a primary died while the scope held unsealed commits: they are
// lost — no survivor has them — nothing committed inside the scope may be
// acknowledged, and from the crash until this Seal the shard's Begin
// refused with ErrCrashed (an autopilot's takeover included), so nothing
// planned over the lost commits reached a survivor. The error belongs to
// this scope alone; later commits and flushes never report it.
func (s AckScope) Seal() error { return each(s.shards, (*member).Seal) }

// CrashPrimary kills the first shard's primary mid-flight (address another
// through Shard(i)): doubled stores still sitting in its write buffers are
// lost (the paper's 1-safe vulnerability window); packets already posted
// reach the backup. The other shards keep serving.
func (c *Cluster) CrashPrimary() error { return c.first().Crash() }

// PartitionPrimary severs the first shard's primary from the SAN without
// killing it: heartbeats stop, its lease stops renewing, and every backup
// is partitioned away. With Autopilot enabled the deposed primary refuses
// new commits once its lease runs out (ErrLeaseExpired), and with
// AutoFailover the surviving majority promotes a replacement no earlier
// than that same instant — the no-split-brain demonstration.
func (c *Cluster) PartitionPrimary() error { return c.first().PartitionPrimary() }

// Failover performs takeover on the first shard: the most-caught-up
// surviving backup recovers from its replicated bytes and starts serving,
// with any remaining survivors re-synced behind it (replication
// continues). Returns ErrNoBackup when no survivor exists.
func (c *Cluster) Failover() error {
	_, err := c.first().Failover()
	return recoveryErr("failover", err)
}

// Repair restores the first shard to its configured replication degree and
// blocks until it is there: fresh backup nodes (and resumed, partitioned
// ones) enroll behind the serving server through the same incremental
// transfer RepairAsync uses, driven to completion before the call returns.
// The other shards keep serving throughout; so does the shard's own commit
// stream, which interleaves with the chunked transfer. An open
// group-commit batch is sealed on the way, as by Flush.
func (c *Cluster) Repair() error { return recoveryErr("repair", c.first().Repair()) }

// RepairAsync starts an online repair of the first shard and returns
// immediately: resumed (partitioned) backups re-enroll by shipping only
// the pages they missed, crashed backups are replaced by fresh nodes
// receiving every page ever written, and the shard heals back to its
// configured replication degree — all while transactions keep committing.
// The state transfer shares the SAN with the live commit stream at a fixed
// half of its bandwidth, a few packets at a time (the availability
// timeline the paper measures), and advances with the commit stream's
// simulated time; Settle lets it stream through idle periods. Watch
// RepairProgress for completion; a joining backup starts counting toward
// quorum at its cut-over. Returns ErrNotRepairable when there is nothing
// to repair.
func (c *Cluster) RepairAsync() error { return recoveryErr("repair", c.first().RepairAsync()) }

// RepairProgress reports the first shard's current (or most recent)
// RepairAsync/Repair.
func (c *Cluster) RepairProgress() RepairProgress {
	st := c.first().RepairStatus()
	return RepairProgress{
		Active:       st.Active,
		Joining:      st.Joining,
		Phase:        st.Phase,
		BytesShipped: st.BytesShipped,
		BytesPlanned: st.BytesPlanned,
		Elapsed:      time.Duration(st.Elapsed.Nanoseconds()),
	}
}

// CrashBackup kills backup i of the first shard: it stops receiving and
// acknowledging and is never promoted. With QuorumSafe, acked commits
// survive the loss of the primary plus any minority of the backups.
func (c *Cluster) CrashBackup(i int) error { return c.first().CrashBackup(i) }

// PauseBackup partitions backup i of the first shard away from its SAN;
// after ResumeBackup it rejoins through RepairAsync/Repair, which ships
// only the pages it missed (or nothing at all when nothing committed while
// it was away).
func (c *Cluster) PauseBackup(i int) error { return c.first().PauseBackup(i) }

// ResumeBackup reconnects a paused backup of the first shard; it stays
// gated — excluded from acknowledgement — until Repair or RepairAsync
// re-enrolls it.
func (c *Cluster) ResumeBackup(i int) error { return c.first().ResumeBackup(i) }

// Backups returns the first shard's current backup count (every shard is
// configured to the same degree).
func (c *Cluster) Backups() int { return c.first().Backups() }

// Generation returns how many failovers (manual or unattended) the
// deployment has completed, summed across shards.
func (c *Cluster) Generation() int {
	total := 0
	for _, m := range c.v().shards {
		total += m.Generation()
	}
	return total
}

// AutopilotEnabled reports whether the unattended failure loop is on
// (configured alike on every shard).
func (c *Cluster) AutopilotEnabled() bool { return c.first().Autopilot().Enabled }

// AutopilotEvents returns the fault timeline the autopilot recorded: one
// event per detected failure on any shard, stamped with its owning shard
// and carrying the MTTD/MTTR stamps the chaos harness aggregates. Empty
// with Autopilot off.
func (c *Cluster) AutopilotEvents() []FailureEvent {
	var out []FailureEvent
	for i, m := range c.v().shards {
		for _, e := range m.AutopilotEvents() {
			out = append(out, FailureEvent{
				Kind:            e.Kind,
				Node:            e.Node,
				Shard:           i,
				FailedAt:        e.FailedAt.Duration(),
				DetectedAt:      e.DetectedAt.Duration(),
				FailedOverAt:    e.FailedOverAt.Duration(),
				RepairStartedAt: e.RepairStartedAt.Duration(),
				RestoredAt:      e.RestoredAt.Duration(),
				RepairBytes:     e.RepairBytes,
			})
		}
	}
	return out
}

// Committed returns the number of committed transactions recorded in the
// serving nodes' reliable memory, summed across shards. Never blocks: the
// per-shard counts are atomic shadows, safe to sample while transactions
// run.
func (c *Cluster) Committed() uint64 {
	var total uint64
	for _, m := range c.v().shards {
		total += m.Committed()
	}
	return total
}

// Stats aggregates the serving stores' transaction counters. Never
// blocks: the counters are atomic.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, m := range c.v().shards {
		st := m.Stats()
		out.Begins += st.Begins
		out.Commits += st.Commits
		out.Aborts += st.Aborts
	}
	return out
}

// NetTraffic returns the bytes shipped over every shard's SAN link since
// the last measurement reset, by category. The counters are atomic:
// sampling while transactions run is safe.
func (c *Cluster) NetTraffic() Traffic {
	var out Traffic
	for _, m := range c.v().shards {
		n := m.NetBytes()
		out.ModifiedBytes += n[mem.CatModified]
		out.UndoBytes += n[mem.CatUndo]
		out.MetaBytes += n[mem.CatMeta]
		out.SyncBytes += n[mem.CatSync]
		out.ControlBytes += n[mem.CatControl]
	}
	return out
}

// Elapsed returns the simulated time consumed since the last measurement
// reset: the slowest shard's, where a shard's is the longest span of its
// primary and of each backup that served it a read (see
// replication.Group.Elapsed). Shards, and a shard's read views, run in
// parallel on disjoint hardware, so aggregate throughput is total
// operations divided by this maximum — which is why it grows with the
// shard count. Never blocks: the clocks are sampled atomically.
func (c *Cluster) Elapsed() time.Duration { return c.elapsed().Duration() }

// elapsed is Elapsed in simulated time.
func (c *Cluster) elapsed() sim.Time {
	var e sim.Time
	for _, m := range c.v().shards {
		e = max(e, m.Elapsed())
	}
	return e
}

// ResetMeasurement starts a fresh measured interval on every shard
// (statistics zeroed, cache and link state preserved) and zeroes the
// deployment-level counters (placement gauges persist).
func (c *Cluster) ResetMeasurement() {
	for _, m := range c.v().shards {
		m.ResetMeasurement()
	}
	if c.reg != nil {
		c.reg.Reset()
	}
}

// Metrics merges every shard's observability snapshot plus the
// deployment-level registry (rebalance instruments and placement events,
// stamped shard -1): counters and gauges sum, same-name histograms merge
// bucket-wise, and each per-shard event is stamped with its owning shard
// before the timelines concatenate. The zero Snapshot with Config.Metrics
// off. Safe to call while transactions run; counters and histograms are
// read atomically.
func (c *Cluster) Metrics() Metrics {
	var out Metrics
	for i, m := range c.v().shards {
		snap := m.reg.Snapshot()
		for j := range snap.Events {
			snap.Events[j].Shard = i
		}
		out.Merge(snap)
	}
	if c.reg != nil {
		snap := c.reg.Snapshot()
		for j := range snap.Events {
			snap.Events[j].Shard = -1
		}
		out.Merge(snap)
	}
	return out
}
