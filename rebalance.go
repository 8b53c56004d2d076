package repro

// This file is the deployment's online rebalance engine: the mover
// that executes the plans internal/placement produces, riding the same
// copier as replica repair — a paid, sparse background copy that re-ships
// what gets written under it, and a brief per-range cut-over barrier after
// which routing flips atomically.
//
// One range move runs at a time, in four steps:
//
//  1. Fence: Begin+Abort on the source shard, the admission probe. A
//     source that cannot serve parks the mover here with its own sentinel,
//     and an autopilot's takeover is pumped before anything is read.
//  2. Image: sent[] marks owed every page of the range that either shard's
//     database log ever stamped (Group.DirtyStamps) — the target's too,
//     because its partition may still hold the bytes of a range moved away
//     from it earlier. A page neither ever wrote reads zero on both.
//     Whatever writes the source afterwards — commit, abort-undo, raw Load,
//     through this router or a Shard view — stamps its pages where it lands
//     (mem.Region.WriteRaw), so "stamped since the mover read it" is all the
//     dirty tracking there is.
//  3. Copy: one loop ships the dirty pages raw (the target installs on
//     every replica, like an initial Load), stamping sent[p] before each
//     read — the owed pages no read has reached first, so the first pass
//     ships exactly the pages either log ever stamped, then whatever was
//     written since its read. The mover pays for nothing itself: it tells the
//     source group how many bytes it wants (Group.MoveBudget), the group's
//     one copier budget pays them after its joiners — inside the
//     acknowledgement wait of the source's commits — and the mover copies
//     what was paid at its next pump, from Commit/Abort or Settle. Only the
//     source's link is charged (CatSync, like repair traffic): as in every
//     other transfer of the model, the link that transmits pays.
//  4. Cut-over barrier: once the backlog is small (or the chase has
//     re-shipped its bound) and paid for, the mover takes the source's
//     single transaction slot (quiescing writers, whose stores are already
//     stamped) and the load lock (a raw Load bypasses the slot), drains the
//     residual dirt and flips the routing table: a new placement epoch is
//     published through the view's atomic pointer. Readers that raced the
//     flip detect the table change and re-route; transactions that blocked
//     on the barrier re-route when it releases.
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
	// movePage is the copy granule: the page of the groups' dirty logs.
	movePage = 4096
	// cutoverMaxDirty is the dirty backlog (bytes) below which the mover
	// stops copying in the open and takes the cut-over barrier: the
	// barrier drains at most this much, keeping the write stall brief and
	// bounded.
	cutoverMaxDirty = 8 * movePage
)

// errMoveRestart signals a generation change: the move restarts from the
// fence.
var errMoveRestart = errors.New("repro: move restarted by failover")

// RebalanceProgress is a point-in-time report of the elastic mover.
// Moves counts the coalesced range moves of the current (or most recent)
// plan; CurrentFrom/CurrentTo name the shards of the in-flight move (-1
// when idle); Stalls counts cut-overs that had to drain residual dirty
// pages under the barrier. BytesTotal is the size of the plan's ranges.
// BytesShipped counts the pages copied: only pages either end ever wrote
// are, so on a partly written database it can end below BytesTotal, and
// pages written under the copy are copied again — up to half a range (at
// least 128 KB) beyond its first pass, plus what the barrier drains.
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
// generations are the ones sent was imaged in: stamps from another
// generation are another node's sequence, and restart the move.
type rangeMove struct {
	mv       placement.Move
	src, dst *member
	srcGen   int
	dstGen   int

	fenced bool
	// planned is the first pass: the bytes of the pages owed at the fence.
	// shipped totals the bytes copied since; once it exceeds planned by
	// chaseBudget the cut-over is forced (see pumpLocked). paid is what the
	// source's copier paid toward the move that no page has used yet.
	planned, shipped, paid int
	buf                    []byte

	// sent[p] is one past the source database log's stamp of page p of the
	// range as it stood just before the mover last read the page: 0 for a
	// page owed and not read yet. now is the image scan compares it with. A
	// page is dirty iff now[p] >= sent[p].
	sent, now []uint64
}

// migActive reports whether a rebalance is moving ranges — the hot
// paths' one-atomic-load gate.
func (c *Cluster) migActive() bool { return c.mig.active.Load() }

// fence images both ends' logs into sent (step 2) and pins both
// generations.
func (m *rangeMove) fence() {
	m.dstGen = m.dst.DirtyStamps(m.mv.ToLocal, m.sent)
	m.srcGen = m.src.DirtyStamps(m.mv.FromLocal, m.now)
	for p := range m.sent {
		if m.sent[p] == 0 && m.now[p] == 0 {
			m.sent[p] = 1 // neither end ever wrote it: it reads zero on both
		} else {
			m.sent[p] = 0
		}
	}
	m.planned = m.count()
	m.fenced = true
}

// scan images the source's stamps and returns the bytes awaiting a copy;
// errMoveRestart when the source failed over under the move.
func (m *rangeMove) scan() (int, error) {
	if m.src.DirtyStamps(m.mv.FromLocal, m.now) != m.srcGen {
		return 0, errMoveRestart
	}
	return m.count(), nil
}

// count returns the bytes of the pages the last image found dirty.
func (m *rangeMove) count() int {
	n := 0
	for p, s := range m.now {
		if s >= m.sent[p] {
			n++
		}
	}
	return n * movePage
}

// chaseBudget returns the bytes the mover is willing to re-ship beyond
// its first pass before forcing the cut-over: half the range (a 1.5×
// shipping overhead bound), floored so small moves still get a few passes.
func (m *rangeMove) chaseBudget() int { return max(m.mv.Bytes()/2, 4*cutoverMaxDirty) }

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
// RebalanceAsync) moves their share of the partitions onto them; until
// then routing, and every existing metric, is untouched.
// ErrRebalanceActive while a rebalance is running.
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
	// A new shard's measured interval starts level with the deployment's,
	// so the work moved onto it is not free until its clocks catch up.
	e := sim.Dur(c.elapsed())
	for i := 0; i < n; i++ {
		m, err := c.newShard(len(list))
		if err != nil {
			return nil, err
		}
		m.Primary().Clock.Advance(e)
		list = append(list, m)
	}
	ids := c.layout.Grow(n)
	c.view.Store(&placeView{shards: list, table: v.table})
	return ids, nil
}

// RebalanceAsync plans the moves that even out the serving shards and
// starts the mover: partitions leave the shards holding the most for the
// shards holding the fewest until the counts differ by at most one.
// Returns immediately; the mover rides the commit stream (Commit/Abort
// and Settle pump it) — watch RebalanceProgress, or call Rebalance to
// block. Nil with nothing to do; ErrRebalanceActive if already running.
func (c *Cluster) RebalanceAsync() error {
	if err := c.lockTopology(); err != nil {
		return err
	}
	defer c.admin.Unlock()
	moves := c.layout.PlanGrow()
	if len(moves) == 0 {
		return nil
	}
	c.startMoves(moves)
	return nil
}

// Rebalance is the blocking form: plan (unless a rebalance is already
// active, which it then adopts) and drive the mover to completion. The
// copy is driven synchronously, a chunk per grant of the source's copier,
// but still charges the source's SAN, so the shipped bytes cost their
// simulated time. An error (a crashed group) leaves the rebalance active
// and resumable: repair the group and call Rebalance again.
func (c *Cluster) Rebalance() error {
	if err := c.RebalanceAsync(); err != nil && !errors.Is(err, ErrRebalanceActive) {
		return err
	}
	return c.drive()
}

// RemoveShard drains every range off the shard onto the emptiest
// survivors (a blocking online rebalance) and tombstones it: the id keeps
// indexing Token/Stats but owns no data and joins no future plan.
// ErrNoCapacity when the survivors cannot absorb the data; ErrShardCount
// when it is the last serving shard. If a crash interrupts the drain,
// repair the group, finish the moves with Rebalance, then call it again.
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

// drive pumps the mover to completion (the synchronous Rebalance/RemoveShard
// path), every pump taking the source copier's whole-chunk grant; errors
// park the mover resumable.
func (c *Cluster) drive() error {
	for c.migActive() {
		if err := c.pump(true, true); err != nil {
			return err
		}
	}
	return nil
}

// pump advances the mover. wait=false (the per-commit hook) skips out if
// another goroutine is pumping; sync=true (the synchronous drive) has the
// source's copier grant a whole chunk instead of what its budget accrued.
func (c *Cluster) pump(wait, sync bool) error {
	if wait {
		c.mig.mu.Lock()
	} else if !c.mig.mu.TryLock() {
		return nil
	}
	defer c.mig.mu.Unlock()
	return c.pumpLocked(sync)
}

func (c *Cluster) pumpLocked(sync bool) error {
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
			m.fence()
		}
		backlog, err := m.scan()
		if err != nil || m.dst.Generation() != m.dstGen {
			// Failover mid-move: restart from the fence. The copy re-reads
			// the new serving store; raw installs on the target are
			// idempotent, so repeating shipped work is safe.
			c.mig.cur = nil
			continue
		}
		// The chase is bounded: a range written faster than the copier pays
		// never converges below the threshold (every small store dirties a
		// whole page), so once the re-shipping passes its budget the mover
		// stops chasing and cuts over, draining the residual under the
		// barrier — a bounded, recorded stall instead of a livelock.
		cut := backlog <= cutoverMaxDirty || m.shipped >= m.planned+m.chaseBudget()
		m.paid += m.src.MoveBudget(backlog-m.paid, sync)
		if !cut {
			n, err := c.copyPaid(m)
			if err != nil {
				return err
			}
			if n == 0 {
				// Nothing paid yet: park until the source's commits pay.
				return nil
			}
			continue
		}
		// The barrier drain is pre-paid: the barrier is taken once the
		// whole backlog is paid for, keeping the stall off the payment path.
		if m.paid < backlog {
			return nil
		}
		switch err := c.cutoverLocked(m); {
		case err == errMoveRestart:
			c.mig.cur = nil
		case err != nil:
			return err
		default:
			c.mig.queue = c.mig.queue[1:]
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
		buf:  make([]byte, movePage),
	}
	c.mig.curFrom.Store(int64(mv.From))
	c.mig.curTo.Store(int64(mv.To))
	c.mig.cur = m
	return m
}

// copyPaid ships the pages the last scan found dirty while the move holds
// a page's worth of paid budget, and returns the bytes shipped. The owed
// pages no read has reached go first, lowest first, then the pages written
// since their read: re-shipping a page before the first pass is through
// would spend the budget on dirt the pass has not finished. sent takes one
// past the scanned stamp before the page is read, so a write racing the read
// is shipped again, never missed. The target installs raw on every replica
// (Load), so a target failover never loses shipped bytes.
func (c *Cluster) copyPaid(m *rangeMove) (int, error) {
	shipped := 0
	for _, first := range [2]bool{true, false} {
		for p, s := range m.now {
			if s < m.sent[p] || (m.sent[p] == 0) != first {
				continue
			}
			off := p * movePage
			n := min(movePage, m.mv.Bytes()-off)
			if m.paid < n {
				return shipped, nil
			}
			m.sent[p] = s + 1
			buf := m.buf[:n]
			m.src.ReadRaw(m.mv.FromLocal+off, buf)
			if err := m.dst.Load(m.mv.ToLocal+off, buf); err != nil {
				return shipped, fmt.Errorf("repro: rebalance install on shard %d: %w", m.mv.To, err)
			}
			m.paid -= n
			m.shipped += n
			shipped += n
			c.mig.shipped.Add(int64(n))
			c.mBytes.Add(uint64(n))
		}
	}
	return shipped, nil
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
		if m.paid < backlog {
			// Written since the pump that paid for the drain: the shortfall
			// takes the copier's whole-chunk grant.
			m.paid += m.src.MoveBudget(backlog-m.paid, true)
		}
		n, err := c.copyPaid(m)
		if err != nil {
			return err
		}
		if n == 0 {
			// Only a crashed source pays nothing for a sync grant.
			return fmt.Errorf("repro: rebalance barrier on shard %d: %w", m.mv.From, ErrCrashed)
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
