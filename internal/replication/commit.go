package replication

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/vista"
)

// ackingCount returns how many backups participate in acknowledgement:
// fully enrolled members carrying the current membership epoch (stale
// epochs are fenced; see bumpEpochLocked).
func (g *Group) ackingCount() int {
	n := 0
	for _, b := range g.backups {
		if g.ackEligibleLocked(b) {
			n++
		}
	}
	return n
}

// safetyAvailable checks that enough backups are reachable to honor the
// configured safety level before a transaction opens: commits must never
// report an acknowledgement discipline they cannot deliver.
func (g *Group) safetyAvailable() error {
	if g.cfg.Safety == OneSafe {
		return nil
	}
	acking := g.ackingCount()
	switch g.cfg.Safety {
	case TwoSafe:
		// 2-safe means every enrolled live backup: a paused (partitioned)
		// backup blocks a real 2-safe system, which here surfaces as an
		// error. A mid-join replica is not yet a member — it acquires its
		// 2-safe obligation at cut-over. A member fenced on a stale epoch
		// cannot vouch either, so it too blocks.
		for _, b := range g.backups {
			if b.alive() && !b.joining() && !g.ackEligibleLocked(b) {
				return ErrSafetyUnavailable
			}
		}
		if acking == 0 {
			return ErrSafetyUnavailable
		}
	case QuorumSafe:
		// The quorum is defined over the configured degree, not the
		// shrinking survivor set: fewer reachable ackers than
		// ceil((K+1)/2) means the promised guarantee cannot be given.
		if acking < QuorumAcks(g.cfg.Backups) {
			return ErrSafetyUnavailable
		}
	}
	return nil
}

// Begin opens a transaction on the serving store, blocking while another
// transaction is open on this group (the engine runs one at a time). In
// the active scheme the handle captures the transaction's writes as redo
// records; under TwoSafe or QuorumSafe it additionally holds Commit for
// the configured acknowledgements (per flush when group commit is on).
func (g *Group) Begin() (TxHandle, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.curHandle != nil && !g.crashed {
		g.txFree.Wait()
	}
	if g.deferLost {
		// A deferral scope lost its unsealed commits to a primary death and
		// has not sealed yet. Whatever its owner commits next was computed
		// over state no survivor holds, so nothing is admitted — and no
		// survivor promoted — until the scope's Seal has reported the loss.
		return nil, ErrCrashed
	}
	// The autopilot's admission gate: pump the failure loop, perform the
	// unattended takeover of a dead or deposed primary, and fence a
	// deposed primary whose lease ran out. A no-op when autopilot is off.
	if err := g.admitLocked(); err != nil {
		return nil, err
	}
	if g.crashed {
		return nil, ErrCrashed
	}
	if err := g.safetyAvailable(); err != nil {
		return nil, err
	}
	tx, err := g.store.Begin()
	if err != nil {
		return nil, err
	}
	t := g.freeTx
	if t == nil {
		t = &groupTx{}
	}
	g.freeTx = nil
	t.g, t.tx, t.done = g, tx, false
	t.offs, t.lens, t.data = t.offs[:0], t.lens[:0], t.data[:0]
	g.curHandle = t
	return t, nil
}

// groupTx is the one transaction handle of every mode, in every era: it adds
// the per-operation locking, the redo capture of the active scheme and the
// commit-time shipping, batching and acknowledgement wait to the local
// engine's transaction. One value and its buffers are recycled per group (a
// single transaction is open at a time), so a handle must not be used after
// Commit/Abort.
type groupTx struct {
	g    *Group
	tx   *vista.Tx
	done bool
	// The writes staged for the commit-time redo record (active scheme only):
	// concatenated payloads, entries indexed via offs/lens.
	offs []int
	lens []int
	data []byte
}

var _ TxHandle = (*groupTx)(nil)

// SetRange delegates to the local engine (undo capture).
func (t *groupTx) SetRange(off, n int) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.SetRange(off, n)
}

// Read delegates to the local engine.
func (t *groupTx) Read(off int, dst []byte) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.Read(off, dst)
}

// Write performs the local in-place write (doubled onto the backups in the
// passive scheme) and, in the active scheme, stages the bytes for the
// commit-time redo record.
func (t *groupTx) Write(off int, src []byte) error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := t.tx.Write(off, src); err != nil || g.redo == nil {
		return err
	}
	for len(src) > 0 {
		n := len(src)
		if n > maxEntryLen {
			n = maxEntryLen
		}
		t.offs = append(t.offs, off)
		t.lens = append(t.lens, n)
		t.data = append(t.data, src[:n]...)
		off += n
		src = src[n:]
	}
	return nil
}

// closeLocked is the shared opening of Commit and Abort: a finished handle
// answers ErrTxDone, and one that lost the open-transaction slot to a crash
// — its node died under it — refuses with ErrCrashed without touching ring,
// clock or slot state that may meanwhile belong to a fresh transaction. An
// orphaned handle is never recycled, so it can never alias a newer one.
func (t *groupTx) closeLocked() error {
	if t.done {
		return vista.ErrTxDone
	}
	t.done = true
	if t.g.curHandle != t {
		return ErrCrashed
	}
	return nil
}

// releaseLocked frees the open-transaction slot t owns, wakes one Begin
// waiter and recycles the handle.
func (t *groupTx) releaseLocked() {
	g := t.g
	g.curHandle = nil
	g.txFree.Signal()
	g.freeTx = t
}

// Abort rolls back locally; nothing was shipped yet.
func (t *groupTx) Abort() error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	if err := t.closeLocked(); err != nil {
		return err
	}
	err := t.tx.Abort()
	t.releaseLocked()
	return err
}

// Commit commits locally — the 1-safe commit point — after, in the active
// scheme, writing the transaction's redo record through the SAN. What is left
// of the commit is deferred work a batch can share: the producer-pointer
// publish that lets the backups consume the record, and the
// TwoSafe/QuorumSafe acknowledgement wait. It happens in the batch flush:
// immediately when group commit is off, once per batch when it is on. A
// passive 1-safe or standalone commit defers nothing (the doubled stores
// drain on their own), so it never batches and is its own durability flush.
func (t *groupTx) Commit() error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := t.closeLocked(); err != nil {
		return err
	}
	var shipErr error
	if g.redo != nil {
		shipErr = g.redo.ship(t)
	}
	err := t.tx.Commit()
	t.releaseLocked()
	if err != nil {
		return err
	}
	g.primary.stamps.record(g.store.Committed())
	if g.redo == nil && !g.passiveAcksLocked() {
		err = g.durFlushLocked()
		g.pumpRepairLocked(false)
		g.autopilotPumpLocked()
		return err
	}
	// The flush (inside joinBatchLocked when the batch seals) publishes the
	// pointer and pays the ack wait.
	if err = g.joinBatchLocked(); err == nil {
		// Surface an ack failure from ship's early capacity flush: those
		// batch members' degradation would otherwise be silent.
		err = shipErr
	}
	return err
}

// passiveAcksLocked reports whether a passive-scheme commit owes an
// acknowledgement wait. Without one (1-safe, or no backup left to ask) it
// carries no deferred work at all.
func (g *Group) passiveAcksLocked() bool {
	return g.cfg.Safety != OneSafe && len(g.backups) > 0
}

// batchLimit returns the commit count that seals a batch: unbounded while
// a deferral scope is open (its Seal flushes), else CommitBatch, or 1 when
// group commit is off (flush every commit).
func (g *Group) batchLimit() int {
	const unbounded = int(^uint(0) >> 1)
	if g.deferDepth > 0 {
		return unbounded
	}
	if g.cfg.CommitBatch > 1 {
		return g.cfg.CommitBatch
	}
	return 1
}

// joinBatchLocked adds the just-committed transaction to the open batch
// and flushes when the batch seals at its batchLimit-th member. With group
// commit off the batch seals at every commit, reproducing the unbatched
// pipeline exactly. Every commit also grants the background repair copier
// the simulated time that has passed since its last pump.
func (g *Group) joinBatchLocked() error {
	if g.batchCount == 0 {
		g.batchStart = g.primary.Clock.Now()
	}
	g.batchCount++
	var err error
	if g.batchCount >= g.batchLimit() {
		err = g.flushLocked()
	}
	g.pumpRepairLocked(false)
	// Control traffic is pumped here too, but it bypasses the write
	// buffers entirely: heartbeats never join a batch and never perturb
	// the batch-sealing accounting above.
	g.autopilotPumpLocked()
	return err
}

// Flush seals and ships the open group-commit batch: the redo-ring
// producer pointer is published (active scheme) or the write buffers fenced
// (passive scheme), and under TwoSafe/QuorumSafe the serving clock idles
// until it and any batch a scope sealed before it are acknowledged.
func (g *Group) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushLocked()
}

// Defer opens an acknowledgement-deferral scope: until the matching Seal,
// commits join the open batch without sealing it by count, so a caller
// that acknowledges a run of back-to-back transactions together — a
// server answering a pipelined burst — pays one pointer publish, one
// acknowledgement round trip and one disk sync for the run, whatever
// CommitBatch says. Sealing sooner is always safe, so the ring-capacity
// guard of the active commit path, Flush, Settle and Repair keep sealing
// inside a scope. Scopes nest; count-based sealing resumes when the last
// closes.
func (g *Group) Defer() {
	g.mu.Lock()
	g.deferDepth++
	g.mu.Unlock()
}

// Seal closes the scope the matching Defer opened and seals the open batch
// without idling the serving clock through its acknowledgement: the
// caller's responses wait for it, the primary runs the next group (see
// sealLocked). The seal is bound to its scope: if a primary died while a
// scope held unsealed commits — no delivered pointer ever named them, so no
// survivor has them — Seal returns ErrCrashed, Failover or no Failover in
// between. From that death until the last open scope has sealed, Begin
// refuses with ErrCrashed as well (the autopilot's unattended takeover
// waits with it), so a scope never straddles two lineages. Nothing outside
// a scope ever sees the error: a later Commit or Flush answers for its own
// batch only.
func (g *Group) Seal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.deferDepth--
	if g.deferLost {
		if g.deferDepth == 0 {
			g.deferLost = false
		}
		return ErrCrashed
	}
	return g.sealLocked()
}

// flushLocked seals the pending batch and idles the serving clock until
// every sealed batch is acknowledged. Commits left in an unflushed batch at
// a primary crash are lost exactly like the paper's 1-safe window — Crash
// deliberately does not flush.
func (g *Group) flushLocked() error {
	err := g.sealLocked()
	g.servingRef.Load().settle()
	return err
}

// sealLocked ships the pending batch, fenced to the backups, and records its
// acknowledgement instant in measureRef.acked without waiting for it: a
// scope's Seal stops here, so the next group runs while it crosses back.
func (g *Group) sealLocked() error {
	if g.batchCount == 0 {
		return nil
	}
	batch := g.batchCount
	opened := int64(g.batchStart)
	sealed := int64(0)
	if g.obs != nil {
		sealed = int64(g.primary.Clock.Now())
	}
	g.batchCount = 0
	g.batchStart = 0
	var err error
	if g.redo != nil {
		err = g.redo.flush()
	} else {
		err = g.flushPassiveLocked()
	}
	// The disk tier's fdatasync piggybacks on the sealed batch. It runs
	// even when the acknowledgement discipline degraded (the commits are
	// locally committed and must reach the WAL regardless); an ack error
	// outranks a disk error in the return.
	if derr := g.durFlushLocked(); err == nil {
		err = derr
	}
	if g.obs != nil && err == nil {
		released := max(g.primary.Clock.Now(), g.servingRef.Load().acked.Now())
		g.observeFlush(batch, opened, sealed, int64(released))
	}
	return err
}

// flushPassiveLocked closes the passive-scheme batch: one buffer drain and
// one acknowledgement round trip cover every commit in the batch, and the
// drain leaves every in-sync backup holding the last one.
func (g *Group) flushPassiveLocked() error {
	if !g.passiveAcksLocked() {
		return nil
	}
	err := g.ackLocked()
	g.stampInSyncLocked()
	return err
}

// stampInSyncLocked records the serving node's last commit on every in-sync
// backup if the node still holds exactly the state it left (it wrote nothing
// since its reading for it) and no byte is coalescing toward the backups:
// their synced bytes are then the node's, as a passive backup's always are
// and a just re-synced one's. An active backup records each commit as it
// applies it instead.
func (g *Group) stampInSyncLocked() {
	c := g.store.Committed()
	if at, ok := g.primary.stamps.stamp(c); !ok || at != g.primary.Space.ByName(vista.RegionDB).Dirty.Seq() || (g.primary.MC != nil && g.primary.MC.PendingBufs() > 0) {
		return
	}
	for _, b := range g.backups {
		if b.state == StateInSync {
			b.node.stamps.record(c)
		}
	}
}

// ackLocked is a flushed batch's acknowledgement, for both schemes:
// everything the batch shipped leaves the write buffers, each
// ack-eligible backup acknowledges one link latency plus its lag after it
// holds the batch — an active backup once its ring has applied it, a
// passive one on delivery — and the discipline's release instant pays the
// repair copier, advances the acknowledged clock and stands in for the
// heartbeat round it implies. Too few ackers is ackDeadline's error, with
// nothing advanced.
func (g *Group) ackLocked() error {
	g.primary.Acc.Fence()
	delivered := g.primary.MC.LastDelivered()
	acks := g.ackBuf[:0]
	for _, b := range g.backups {
		if g.ackEligibleLocked(b) {
			held := delivered
			if g.redo != nil {
				held = b.ring.ConsumerDone()
			}
			acks = append(acks, held+sim.Time(g.params.LinkLatency)+sim.Time(b.ackLag))
		}
	}
	g.ackBuf = acks[:0]
	at, err := ackDeadline(acks, g.cfg.Safety, g.cfg.Backups)
	if err != nil {
		return err
	}
	g.payRepairLocked(at, false)
	g.servingRef.Load().acked.AdvanceTo(at)
	g.noteAcksLocked(acks)
	return nil
}

// ackDeadline picks the commit-release instant from the per-backup ack
// times: the slowest for TwoSafe, the quorum-th fastest for QuorumSafe.
// Too few ackers for the discipline — possible only when backups failed
// mid-transaction, since Begin gates on availability — is an error: the
// transaction is locally committed but its durability promise cannot be
// given, and the caller must not treat it as acknowledged.
func ackDeadline(acks []sim.Time, s Safety, degree int) (sim.Time, error) {
	slices.Sort(acks)
	switch s {
	case TwoSafe:
		if len(acks) == 0 {
			return 0, ErrSafetyUnavailable
		}
		return acks[len(acks)-1], nil
	case QuorumSafe:
		need := QuorumAcks(degree)
		if len(acks) < need {
			return 0, ErrSafetyUnavailable
		}
		return acks[need-1], nil
	}
	return 0, nil
}
