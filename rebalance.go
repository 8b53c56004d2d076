package repro

// This file is the deployment's online rebalance engine: the mover
// that executes the plans internal/placement produces, riding the same
// chunked-transfer discipline as replica repair (PR 3) — a paced
// background bulk copy, dirty-range delta resync, and a brief per-range
// cut-over barrier after which routing flips atomically.
//
// One range move runs at a time, in five steps:
//
//  1. Fence: Begin+Abort on the source shard, the admission probe. A
//     source that cannot serve parks the mover here with its own sentinel,
//     and an autopilot's takeover is pumped before anything is read.
//  2. Image: sent[p] takes the source database log's stamp for every page
//     of the range (Group.DirtyStamps). Whatever writes the source —
//     commit, abort-undo, raw Load, through this router or a Shard view —
//     stamps its pages where it lands (mem.Region.WriteRaw), so "stamped
//     since the mover read it" is all the dirty tracking there is.
//  3. Bulk copy: the moving range streams source→target in chunks, raw
//     (the target installs on every replica, like an initial Load), paced
//     by the source's repair-share bandwidth — credit accrues with the
//     source's simulated clock, bought by the foreground commit stream
//     that pumps the mover from Commit/Abort and Settle. Both SANs are
//     charged for the shipped bytes (CatSync, like repair traffic).
//  4. Delta resync: pages stamped past sent[p] are re-shipped, sent[p]
//     re-imaged before each read, until the backlog is small.
//  5. Cut-over barrier: the mover takes the source's single transaction
//     slot (quiescing writers, whose stores are already stamped) and the
//     load lock (a raw Load bypasses the slot), drains the residual dirt
//     and flips the routing table: a new placement epoch is published
//     through the view's atomic pointer. Readers that raced the flip
//     detect the table change and re-route; transactions that blocked on
//     the barrier re-route when it releases.
//
// A failover on either end (generation change) restarts the move from
// the fence — raw installs are idempotent, and the target's replicas all
// hold the copied bytes, so no progress is unsafe to repeat. A crashed
// group parks the mover (pump returns ErrCrashed-wrapped errors;
// synchronous Rebalance surfaces them, asynchronous pumps retry on the
// next commit) until failover or repair restores service.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
)

const (
	// movePage is the delta-resync granule: the page of the groups' dirty
	// logs.
	movePage = 4096
	// moveChunk bounds one transfer chunk, like repair's chunking.
	moveChunk = 64 << 10
	// cutoverMaxDirty is the dirty backlog (bytes) below which the mover
	// stops delta-copying in the open and takes the cut-over barrier:
	// the barrier drains at most this much, keeping the write stall
	// brief and bounded.
	cutoverMaxDirty = 8 * movePage
)

// errMoveRestart signals a generation change detected under the barrier:
// the move restarts from the fence.
var errMoveRestart = errors.New("repro: move restarted by failover")

// RebalanceProgress is a point-in-time report of the elastic mover.
// Moves counts the coalesced range moves of the current (or most recent)
// plan; CurrentFrom/CurrentTo name the shards of the in-flight move (-1
// when idle); Stalls counts cut-overs that had to drain residual dirty
// pages under the barrier.
type RebalanceProgress struct {
	Active       bool
	Epoch        uint64
	Moves        int
	MovesDone    int
	BytesTotal   int64
	BytesShipped int64
	CurrentFrom  int
	CurrentTo    int
	Stalls       int
}

// migState is the mover's state. mu serializes the mover itself (hot
// paths never take it — they gate on the active flag); the progress
// fields are atomics so RebalanceProgress never blocks on a pumping
// goroutine.
type migState struct {
	mu     sync.Mutex
	active atomic.Bool

	queue []placement.Move // remaining plan; queue[0] is the current move
	cur   *rangeMove       // the in-flight move, nil between moves

	moves      atomic.Int64
	movesDone  atomic.Int64
	bytesTotal atomic.Int64
	shipped    atomic.Int64
	stalls     atomic.Int64
	curFrom    atomic.Int64
	curTo      atomic.Int64
}

// rangeMove is one in-flight range migration, private to the mover. The
// source's generation is the one sent was imaged in: stamps from another
// generation are another node's sequence, and restart the move.
type rangeMove struct {
	mv       placement.Move
	src, dst *member
	srcGen   int
	dstGen   int

	fenced bool
	pos    int // bulk-copied bytes so far
	credit float64
	last   sim.Time
	buf    []byte
	// deltaShipped totals the delta-resync bytes re-shipped so far; once
	// it exceeds deltaBudget the cut-over is forced (see pumpLocked).
	deltaShipped int

	// sent[p] is the source database log's stamp of page p of the range
	// as it stood just before the mover last read the page; now is the
	// image scan compares it with. A page is dirty iff now[p] > sent[p].
	sent, now []uint64
}

// migActive reports whether a rebalance is moving ranges — the hot
// paths' one-atomic-load gate.
func (c *Cluster) migActive() bool { return c.mig.active.Load() }

// scan images the source's stamps and returns the bytes awaiting delta
// resync; errMoveRestart when the source failed over under the move.
func (m *rangeMove) scan() (int, error) {
	if m.src.DirtyStamps(m.mv.FromLocal, m.now) != m.srcGen {
		return 0, errMoveRestart
	}
	n := 0
	for p, s := range m.now {
		if s > m.sent[p] {
			n++
		}
	}
	return n * movePage, nil
}

// deltaBudget returns the delta-resync bytes the mover is willing to
// chase before forcing the cut-over: half the range (a 1.5× shipping
// overhead bound), floored so small moves still get a few passes.
func (m *rangeMove) deltaBudget() int {
	b := m.mv.Bytes() / 2
	if b < 4*cutoverMaxDirty {
		b = 4 * cutoverMaxDirty
	}
	return b
}

// emit appends a deployment-level placement event (node/shard -1).
func (c *Cluster) emit(kind string, a, b uint64) {
	if c.reg != nil {
		c.reg.Emit(kind, int64(c.v().shards[0].Now()), -1, a, b)
	}
}

// lockTopology takes the admin lock for a topology mutation; on success
// the caller unlocks. A Shard(i) view has no layout of its own — its
// topology is its parent's — and refuses with ErrNotElastic; a deployment
// mid-rebalance refuses with ErrRebalanceActive.
func (c *Cluster) lockTopology() error {
	if c.layout == nil {
		return ErrNotElastic
	}
	c.admin.Lock()
	if c.migActive() {
		c.admin.Unlock()
		return ErrRebalanceActive
	}
	return nil
}

// AddShards appends n empty shard groups — built from the deployment's
// template configuration, durability subdirectories included — and
// returns their ids. The new shards own no ranges until Rebalance (or
// RebalanceAsync) moves ~added/total of the space onto them; until then
// routing, and every existing metric, is untouched. ErrRebalanceActive
// while a rebalance is running.
func (c *Cluster) AddShards(n int) ([]int, error) {
	if n < 1 {
		return nil, ErrShardCount
	}
	if err := c.lockTopology(); err != nil {
		return nil, err
	}
	defer c.admin.Unlock()
	v := c.v()
	list := make([]*member, len(v.shards), len(v.shards)+n)
	copy(list, v.shards)
	for i := 0; i < n; i++ {
		m, err := c.newShard(len(list))
		if err != nil {
			return nil, err
		}
		list = append(list, m)
	}
	ids := c.layout.Grow(n)
	c.pending = append(c.pending, ids...)
	c.view.Store(&placeView{shards: list, table: v.table})
	return ids, nil
}

// RebalanceAsync plans the minimal-move redistribution toward the shards
// added since the last plan and starts the mover: every partition whose
// ring owner is a new shard migrates there, ~added/total of the space.
// Returns immediately; the mover rides the commit stream (Commit/Abort
// and Settle pump it) — watch RebalanceProgress, or call Rebalance to
// block. Nil with nothing to do; ErrRebalanceActive if already running.
func (c *Cluster) RebalanceAsync() error {
	if err := c.lockTopology(); err != nil {
		return err
	}
	defer c.admin.Unlock()
	if len(c.pending) == 0 {
		return nil
	}
	moves := c.layout.PlanGrow(c.pending)
	c.pending = nil
	if len(moves) == 0 {
		return nil
	}
	c.startMoves(moves)
	return nil
}

// Rebalance is the blocking form: plan (unless a rebalance is already
// active, which it then adopts) and drive the mover to completion. The
// copy is driven synchronously but still charges both SANs, so the
// shipped bytes cost their simulated time. An error (a crashed group)
// leaves the rebalance active and resumable: repair the group and call
// Rebalance again.
func (c *Cluster) Rebalance() error {
	if err := c.RebalanceAsync(); err != nil && !errors.Is(err, ErrRebalanceActive) {
		return err
	}
	return c.drive()
}

// RemoveShard drains every range off the shard onto its ring successors
// (a blocking online rebalance) and tombstones it: the id keeps indexing
// Token/Stats but owns no data and joins no future plan. ErrNoCapacity
// when the survivors cannot absorb the data; ErrShardCount when it is
// the last serving shard. If a crash interrupts the drain, repair the
// group, finish the moves with Rebalance, then call RemoveShard again.
func (c *Cluster) RemoveShard(shard int) error {
	if err := c.lockTopology(); err != nil {
		return err
	}
	defer c.admin.Unlock()
	v := c.v()
	if shard < 0 || shard >= len(v.shards) || c.layout.Removed(shard) {
		return ErrNoSuchShard
	}
	if c.layout.Serving() <= 1 {
		return ErrShardCount
	}
	// A shard added but never rebalanced onto simply leaves the pending
	// list again.
	for i, id := range c.pending {
		if id == shard {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	moves, err := c.layout.PlanDrain(shard)
	if err != nil {
		return err
	}
	if len(moves) > 0 {
		c.startMoves(moves)
		if err := c.drive(); err != nil {
			return err
		}
	}
	c.layout.Remove(shard)
	return nil
}

// RebalanceProgress reports the mover, lock-free.
func (c *Cluster) RebalanceProgress() RebalanceProgress {
	return RebalanceProgress{
		Active:       c.mig.active.Load(),
		Epoch:        c.v().table.Epoch,
		Moves:        int(c.mig.moves.Load()),
		MovesDone:    int(c.mig.movesDone.Load()),
		BytesTotal:   c.mig.bytesTotal.Load(),
		BytesShipped: c.mig.shipped.Load(),
		CurrentFrom:  int(c.mig.curFrom.Load()),
		CurrentTo:    int(c.mig.curTo.Load()),
		Stalls:       int(c.mig.stalls.Load()),
	}
}

// PlacementEpoch returns the live routing table's version: 1 at
// construction, +1 per range cut-over.
func (c *Cluster) PlacementEpoch() uint64 { return c.v().table.Epoch }

// startMoves arms the mover with a plan. Caller holds c.admin.
func (c *Cluster) startMoves(moves []placement.Move) {
	c.mig.mu.Lock()
	defer c.mig.mu.Unlock()
	var total int64
	for _, m := range moves {
		total += int64(m.Bytes())
	}
	c.mig.queue = moves
	c.mig.moves.Store(int64(len(moves)))
	c.mig.movesDone.Store(0)
	c.mig.bytesTotal.Store(total)
	c.mig.shipped.Store(0)
	c.mig.stalls.Store(0)
	c.mig.curFrom.Store(-1)
	c.mig.curTo.Store(-1)
	c.mig.active.Store(true)
	c.emit(obs.EventRebalanceStart, uint64(len(moves)), uint64(total))
}

// drive pumps the mover to completion without pacing (the synchronous
// Rebalance/RemoveShard path); errors park the mover resumable.
func (c *Cluster) drive() error {
	for c.migActive() {
		if err := c.pump(true, true); err != nil {
			return err
		}
	}
	return nil
}

// pump advances the mover. wait=false (the per-commit hook) skips out if
// another goroutine is pumping; unpaced=true ignores the bandwidth
// credit and copies to completion (the synchronous drive).
func (c *Cluster) pump(wait, unpaced bool) error {
	if wait {
		c.mig.mu.Lock()
	} else if !c.mig.mu.TryLock() {
		return nil
	}
	defer c.mig.mu.Unlock()
	return c.pumpLocked(unpaced)
}

func (c *Cluster) pumpLocked(unpaced bool) error {
	for c.mig.active.Load() {
		if len(c.mig.queue) == 0 {
			c.finishRebalanceLocked()
			return nil
		}
		m := c.mig.cur
		if m == nil {
			m = c.startMoveLocked(c.mig.queue[0])
		}
		if m.src.Crashed() || m.dst.Crashed() {
			return fmt.Errorf("repro: rebalance parked, move [%d,+%d) %d->%d blocked on a crashed group: %w",
				m.mv.Start, m.mv.Bytes(), m.mv.From, m.mv.To, ErrCrashed)
		}
		if !m.fenced {
			// The admission probe (step 1), then the image (step 2).
			tx, err := m.src.Begin()
			if err != nil {
				return fmt.Errorf("repro: rebalance fence on shard %d: %w", m.mv.From, err)
			}
			tx.Abort()
			m.srcGen = m.src.DirtyStamps(m.mv.FromLocal, m.sent)
			m.dstGen = m.dst.Generation()
			m.fenced = true
			m.last = m.src.Now()
		} else if m.src.Generation() != m.srcGen || m.dst.Generation() != m.dstGen {
			// Failover mid-move: restart from the fence. The bulk copy
			// re-reads the new serving store; raw installs on the target
			// are idempotent, so repeating shipped work is safe.
			c.mig.cur = nil
			continue
		}
		allow := m.mv.Bytes() + cutoverMaxDirty
		if !unpaced {
			now := m.src.Now()
			if dt := now - m.last; dt > 0 {
				m.credit += float64(dt) * m.src.TransferRate()
			}
			m.last = now
			allow = int(m.credit)
			if allow > m.mv.Bytes()+cutoverMaxDirty {
				allow = m.mv.Bytes() + cutoverMaxDirty
			}
		}
		shipped := 0
		if m.pos < m.mv.Bytes() {
			n, err := c.bulkCopy(m, allow)
			if err != nil {
				return err
			}
			shipped += n
		}
		if m.pos == m.mv.Bytes() {
			// The delta phase is bounded: a range written faster than the
			// mover's bandwidth share never converges below the threshold
			// (every small store dirties a whole page), so after
			// re-shipping a budget's worth of deltas the mover stops
			// chasing and cuts over, draining the residual under the
			// barrier — a bounded, recorded stall instead of a livelock.
			forced := m.deltaShipped >= m.deltaBudget()
			backlog, err := m.scan()
			for err == nil && !forced && allow-shipped >= movePage && backlog > cutoverMaxDirty {
				var n int
				if n, err = c.deltaCopy(m, allow-shipped); err == nil {
					shipped += n
					m.deltaShipped += n
					forced = m.deltaShipped >= m.deltaBudget()
					backlog, err = m.scan()
				}
			}
			// The barrier drain is pre-paid: the normal path owes at most
			// cutoverMaxDirty bytes, a forced cut-over the whole residual
			// backlog — requiring that budget up front keeps the stall off
			// the pacing path.
			need := cutoverMaxDirty
			if forced && backlog > need {
				need = backlog
			}
			cut := err == nil && (backlog <= cutoverMaxDirty || forced) && (unpaced || allow-shipped >= need)
			if cut {
				err = c.cutoverLocked(m)
			}
			switch {
			case err == errMoveRestart:
				c.mig.cur = nil
				continue
			case err != nil:
				if !unpaced {
					m.credit -= float64(shipped)
				}
				return err
			case cut:
				c.mig.queue = c.mig.queue[1:]
				continue
			}
		}
		if !unpaced {
			m.credit -= float64(shipped)
			if shipped == 0 {
				// Out of bandwidth credit: park until the commit stream
				// buys more simulated time.
				return nil
			}
		}
	}
	return nil
}

// startMoveLocked makes queue[0] the in-flight move. Nothing outside the
// mover learns of it: the source stamps its pages, move or no move.
func (c *Cluster) startMoveLocked(mv placement.Move) *rangeMove {
	v := c.v()
	pages := (mv.Bytes() + movePage - 1) / movePage
	m := &rangeMove{
		mv:   mv,
		src:  v.shards[mv.From],
		dst:  v.shards[mv.To],
		sent: make([]uint64, pages),
		now:  make([]uint64, pages),
	}
	c.mig.curFrom.Store(int64(mv.From))
	c.mig.curTo.Store(int64(mv.To))
	c.mig.cur = m
	return m
}

// bulkCopy streams the unshipped prefix of the move, up to allow bytes.
func (c *Cluster) bulkCopy(m *rangeMove, allow int) (int, error) {
	shipped := 0
	for shipped < allow && m.pos < m.mv.Bytes() {
		sz := moveChunk
		if sz > allow-shipped {
			sz = allow - shipped
		}
		if sz > m.mv.Bytes()-m.pos {
			sz = m.mv.Bytes() - m.pos
		}
		if sz < movePage && m.pos+sz < m.mv.Bytes() {
			// Don't dribble sub-page chunks while paced.
			break
		}
		if err := c.ship(m, m.pos, sz); err != nil {
			return shipped, err
		}
		m.pos += sz
		shipped += sz
	}
	return shipped, nil
}

// deltaCopy re-ships the pages the last scan found dirty, lowest first, up
// to allow bytes. sent takes the scanned stamp before the page is read, so
// a write racing the read is shipped again, never missed.
func (c *Cluster) deltaCopy(m *rangeMove, allow int) (int, error) {
	shipped := 0
	for p, s := range m.now {
		if s <= m.sent[p] {
			continue
		}
		if allow-shipped < movePage {
			break
		}
		m.sent[p] = s
		off := p * movePage
		n := min(movePage, m.mv.Bytes()-off)
		if err := c.ship(m, off, n); err != nil {
			return shipped, err
		}
		shipped += n
	}
	return shipped, nil
}

// ship copies n bytes at relative offset rel of the move, source to
// target, charging both SANs the bulk-transfer cost. The target installs
// raw on every replica (Load), so a target failover never loses shipped
// bytes.
func (c *Cluster) ship(m *rangeMove, rel, n int) error {
	if m.buf == nil {
		m.buf = make([]byte, moveChunk)
	}
	for n > 0 {
		sz := n
		if sz > moveChunk {
			sz = moveChunk
		}
		buf := m.buf[:sz]
		m.src.ReadRaw(m.mv.FromLocal+rel, buf)
		if err := m.dst.Load(m.mv.ToLocal+rel, buf); err != nil {
			return fmt.Errorf("repro: rebalance install on shard %d: %w", m.mv.To, err)
		}
		m.src.ShipBulk(sz)
		m.dst.ShipBulk(sz)
		c.mig.shipped.Add(int64(sz))
		c.mBytes.Add(uint64(sz))
		rel += sz
		n -= sz
	}
	return nil
}

// cutoverLocked performs the per-range cut-over: barrier, residual
// drain, atomic routing flip.
func (c *Cluster) cutoverLocked(m *rangeMove) error {
	// Barrier: holding the source's single transaction slot means no
	// transaction holds — or can open — a write on the source, and what
	// the finished ones wrote was stamped as it landed.
	tx, err := m.src.Begin()
	if err != nil {
		return fmt.Errorf("repro: rebalance barrier on shard %d: %w", m.mv.From, err)
	}
	defer tx.Abort()
	// A raw Load bypasses the slot; the load lock keeps it out from the
	// last scan to the flip.
	c.loads.Lock()
	defer c.loads.Unlock()
	stalled := false
	for {
		backlog, err := m.scan()
		if err != nil {
			return err
		}
		if m.dst.Generation() != m.dstGen {
			return errMoveRestart
		}
		if backlog == 0 {
			break
		}
		if _, err := c.deltaCopy(m, backlog); err != nil {
			return err
		}
		stalled = true
	}
	old := c.v()
	c.layout.Apply(m.mv)
	epoch := old.table.Epoch + 1
	c.view.Store(&placeView{shards: old.shards, table: c.layout.Compile(epoch)})
	c.mig.cur = nil
	c.mig.movesDone.Add(1)
	if stalled {
		c.mig.stalls.Add(1)
		c.mStalls.Inc()
	}
	c.mRanges.Inc()
	c.mEpoch.Set(int64(epoch))
	c.emit(obs.EventRangeCutover, epoch, uint64(m.mv.Start))
	return nil
}

// finishRebalanceLocked retires a drained plan.
func (c *Cluster) finishRebalanceLocked() {
	c.mig.curFrom.Store(-1)
	c.mig.curTo.Store(-1)
	c.mig.active.Store(false)
	c.emit(obs.EventRebalanceDone, uint64(c.mig.movesDone.Load()), uint64(c.mig.shipped.Load()))
}
