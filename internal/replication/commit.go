package replication

import (
	"sort"

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
// the active era the handle captures the transaction's writes as redo
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
	var h TxHandle
	switch {
	case g.redo != nil:
		h = g.redo.wrap(tx)
	case g.cfg.Safety != OneSafe && len(g.backups) > 0:
		st := g.freeSafety
		if st == nil {
			st = &safetyTx{}
		}
		g.freeSafety = nil
		*st = safetyTx{g: g, tx: tx}
		h = st
	default:
		pt := g.freePlain
		if pt == nil {
			pt = &plainTx{}
		}
		g.freePlain = nil
		*pt = plainTx{g: g, tx: tx}
		h = pt
	}
	g.curHandle = h
	return h, nil
}

// finishTxLocked releases the open-transaction slot (h is known to own
// it) and wakes one Begin waiter.
func (g *Group) finishTxLocked(h TxHandle) {
	if g.curHandle == h {
		g.curHandle = nil
		g.txFree.Signal()
	}
}

// orphanedLocked reports whether h lost the open-transaction slot to a
// crash: its node died under it, so the handle must refuse further work
// without touching state that may meanwhile belong to a fresh
// transaction. An orphaned handle is never recycled.
func (g *Group) orphanedLocked(h TxHandle) bool { return g.curHandle != h }

// plainTx is the standalone / passive-1-safe handle: it only adds the
// per-operation locking and the open-slot release at the end of the
// transaction. One value is recycled per group (a single transaction is
// open at a time), so a handle must not be used after Commit/Abort.
type plainTx struct {
	g    *Group
	tx   *vista.Tx
	done bool
}

var _ TxHandle = (*plainTx)(nil)

func (t *plainTx) SetRange(off, n int) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.SetRange(off, n)
}

func (t *plainTx) Write(off int, src []byte) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.Write(off, src)
}

func (t *plainTx) Read(off int, dst []byte) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.Read(off, dst)
}

func (t *plainTx) Commit() error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) {
		t.done = true
		return ErrCrashed
	}
	err := t.tx.Commit()
	t.done = true
	g.finishTxLocked(t)
	g.freePlain = t
	if err == nil {
		// Plain commits never batch, so each one is its own durability
		// flush (the Standalone and 1-safe-passive disk discipline).
		if derr := g.durFlushLocked(); derr != nil {
			err = derr
		}
	}
	g.pumpRepairLocked(false, true)
	g.autopilotPumpLocked()
	return err
}

func (t *plainTx) Abort() error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) {
		t.done = true
		return ErrCrashed
	}
	err := t.tx.Abort()
	t.done = true
	g.finishTxLocked(t)
	g.freePlain = t
	return err
}

// safetyTx wraps a passive-era transaction with the commit-safety wait:
// the doubled writes already carry the state, so closing the window only
// needs the write buffers drained and the acknowledgement round trip. With
// group commit enabled the drain and the round trip are paid once per
// batch instead of once per transaction.
type safetyTx struct {
	g    *Group
	tx   *vista.Tx
	done bool
}

var _ TxHandle = (*safetyTx)(nil)

func (t *safetyTx) SetRange(off, n int) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.SetRange(off, n)
}

func (t *safetyTx) Write(off int, src []byte) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.Write(off, src)
}

func (t *safetyTx) Read(off int, dst []byte) error {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.tx.Read(off, dst)
}

func (t *safetyTx) Abort() error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) {
		t.done = true
		return ErrCrashed
	}
	err := t.tx.Abort()
	t.done = true
	g.finishTxLocked(t)
	g.freeSafety = t
	return err
}

func (t *safetyTx) Commit() error {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) {
		t.done = true
		return ErrCrashed
	}
	if err := t.tx.Commit(); err != nil {
		t.done = true
		g.finishTxLocked(t)
		g.freeSafety = t
		return err
	}
	err := g.joinBatchLocked()
	t.done = true
	g.finishTxLocked(t)
	g.freeSafety = t
	return err
}

// batchLimit returns the commit count that seals a batch: unbounded while
// a deferral scope is open (its Seal flushes), else 1 when group commit is
// off (flush every commit), CommitBatch when set, otherwise unbounded
// (window- or Flush-driven sealing).
func (g *Group) batchLimit() int {
	const unbounded = int(^uint(0) >> 1)
	if g.deferDepth > 0 {
		return unbounded
	}
	if g.cfg.CommitBatch > 1 {
		return g.cfg.CommitBatch
	}
	if g.cfg.CommitBatch <= 1 && g.cfg.CommitWindow <= 0 {
		return 1
	}
	return unbounded // window-only batching: no count cap
}

// joinBatchLocked adds the just-committed transaction to the open batch
// and flushes when the batch seals: at the CommitBatch-th member, or when
// this commit landed CommitWindow past the batch's opening instant. With
// group commit off the batch seals at every commit, reproducing the
// unbatched pipeline exactly. Every commit also grants the background
// repair copier the simulated time that has passed since its last pump.
func (g *Group) joinBatchLocked() error {
	now := g.primary.Clock.Now()
	if g.batchCount == 0 {
		g.batchStart = now
	}
	g.batchCount++
	var err error
	if g.batchCount >= g.batchLimit() ||
		(g.cfg.CommitWindow > 0 && sim.Dur(now-g.batchStart) >= g.cfg.CommitWindow) {
		err = g.flushLocked()
	}
	g.pumpRepairLocked(false, true)
	// Control traffic is pumped here too, but it bypasses the write
	// buffers entirely: heartbeats never join a batch and never perturb
	// the batch-sealing accounting above.
	g.autopilotPumpLocked()
	return err
}

// Flush seals and ships the open group-commit batch: the redo-ring
// producer pointer is published (active era) or the write buffers fenced
// (passive era), and under TwoSafe/QuorumSafe the batch's single
// acknowledgement wait is charged. A no-op when no commits are pending.
func (g *Group) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushLocked()
}

// Defer opens an acknowledgement-deferral scope: until the matching Seal,
// commits join the open batch without sealing it by count, so a caller
// that acknowledges a run of back-to-back transactions together — a
// server answering a pipelined burst — pays one pointer publish, one
// acknowledgement wait and one disk sync for the run, whatever CommitBatch
// says. Sealing sooner is always safe, so the ring-capacity guard of the
// active commit path, a CommitWindow, Flush and Settle keep sealing inside
// a scope. Scopes nest; count-based sealing resumes when the last closes.
func (g *Group) Defer() {
	g.mu.Lock()
	g.deferDepth++
	g.mu.Unlock()
}

// Seal closes the scope the matching Defer opened and flushes the open
// batch. The seal is bound to its scope: if a primary died while a scope
// held unsealed commits — no delivered pointer ever named them, so no
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
	return g.flushLocked()
}

// flushLocked ships the pending batch. Commits left in an unflushed batch
// at a primary crash are lost exactly like the paper's 1-safe window —
// Crash deliberately does not flush.
func (g *Group) flushLocked() error {
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
		g.observeFlush(batch, opened, sealed, int64(g.primary.Clock.Now()))
	}
	return err
}

// flushPassiveLocked closes the passive-era batch: one buffer drain and
// one acknowledgement round trip cover every commit in the batch.
func (g *Group) flushPassiveLocked() error {
	if g.cfg.Safety == OneSafe || len(g.backups) == 0 {
		// 1-safe passive commits carry no deferred work: the doubled
		// stores drain on their own.
		return nil
	}
	// Everything the batch doubled must leave the write buffers before
	// any backup can acknowledge it.
	g.primary.Acc.Fence()
	delivered := g.primary.MC.LastDelivered()
	acks := g.ackBuf[:0]
	for _, b := range g.backups {
		if g.ackEligibleLocked(b) {
			acks = append(acks, delivered+sim.Time(b.ackLag)+sim.Time(g.params.LinkLatency))
		}
	}
	g.ackBuf = acks[:0]
	at, err := ackDeadline(acks, g.cfg.Safety, g.cfg.Backups)
	if err != nil {
		return err
	}
	g.primary.Clock.AdvanceTo(at)
	return nil
}

// ackDeadline picks the commit-release instant from the per-backup ack
// times: the slowest for TwoSafe, the quorum-th fastest for QuorumSafe.
// Too few ackers for the discipline — possible only when backups failed
// mid-transaction, since Begin gates on availability — is an error: the
// transaction is locally committed but its durability promise cannot be
// given, and the caller must not treat it as acknowledged.
func ackDeadline(acks []sim.Time, s Safety, degree int) (sim.Time, error) {
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
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
