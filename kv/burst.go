package kv

import (
	"errors"

	"repro"
)

// Burst runs a sequence of operations as one unit of acknowledgement: it
// takes the store at its first operation and holds it through Seal, and
// where a mutation is one transaction (a one-shard deployment) the
// mutations' acknowledgement wait is deferred to that Seal — one pointer
// publish, one quorum wait, one WAL sync for all of them (see
// repro.DB.DeferAcks). It is what a server answering a pipelined burst of
// requests uses: no result of a burst operation — reads included — may be
// shown to anyone before Seal has returned nil. Because the burst holds
// the store, no other caller can observe a write whose seal is still
// pending, and a Get inside the burst sees the burst's own writes.
//
// On a multi-shard deployment a mutation is record-then-flip on two
// groups, and deferring both waits would let a flip publish before its
// record; there the burst only holds the store and every commit keeps its
// own wait. The shape — operate, Seal, then answer — is the same.
//
// A Burst is reusable: after Seal the next operation takes the store
// again. It belongs to one goroutine, which must not call the Store's own
// methods (they take the same lock) between an operation and Seal.
type Burst struct {
	s         *Store
	held      bool           // the burst holds s.mu
	deferring bool           // scope is open
	scope     repro.AckScope // valid while deferring
	err       error          // what the scope's seal returned, for Seal to report
}

// Burst returns an idle burst over the store.
func (s *Store) Burst() *Burst { return &Burst{s: s} }

// Deferring reports whether the burst holds an open deferral scope: whether
// going on before Seal can save its mutations an acknowledgement wait.
// False on a multi-shard deployment and on an idle burst.
func (b *Burst) Deferring() bool { return b.deferring }

// hold takes the store at the burst's first operation and, where a
// mutation is one transaction, opens the deployment's deferral scope.
func (b *Burst) hold() {
	if b.held {
		return
	}
	s := b.s
	s.mu.Lock()
	b.held = true
	s.burst = b
	if s.singleTx() {
		b.scope = s.db.DeferAcks()
		b.deferring = true
	}
}

// sealScope closes the open deferral scope, if any, and keeps its error
// for Seal. A seal that reports the commits lost breaks the store exactly
// as a failed Commit does (Store.fail) and is returned; one that reports
// them durable but unvouched (repro.ErrSafetyUnavailable) leaves the index
// correct and the burst free to go on.
func (b *Burst) sealScope() error {
	if !b.deferring {
		return nil
	}
	b.deferring = false
	b.err = b.scope.Seal()
	if b.err == nil || errors.Is(b.err, repro.ErrSafetyUnavailable) {
		return nil
	}
	return b.s.fail(b.err)
}

// Seal ends the burst: the deferred acknowledgements are collected, the
// store is released, and only a nil return makes the burst's results fit
// to show. repro.ErrCrashed means the primary died while the burst held
// unacknowledged commits: they are gone with it, the deployment admitted
// nothing further from the burst, the store is broken — Reopen after the
// failover, and every key reads what it held before the burst — and
// nothing the burst returned may be acknowledged. repro.ErrSafetyUnavailable
// means what it means from Put: durable on the serving node,
// acknowledgement discipline not met. Seal on an idle burst is a no-op.
func (b *Burst) Seal() error {
	if !b.held {
		return nil
	}
	_ = b.sealScope() // kept in b.err
	err := b.err
	b.err = nil
	b.held = false
	b.s.burst = nil
	b.s.mu.Unlock()
	return err
}

// Get is Store.Get inside the burst.
func (b *Burst) Get(key []byte) ([]byte, error) { return fresh(b.GetAppend(key, nil)) }

// GetAppend is Store.GetAppend inside the burst.
func (b *Burst) GetAppend(key, dst []byte) ([]byte, error) {
	b.hold()
	return b.s.get(key, dst)
}

// Put is Store.Put inside the burst.
func (b *Burst) Put(key, value []byte) error {
	b.hold()
	return b.s.put(key, value)
}

// Delete is Store.Delete inside the burst.
func (b *Burst) Delete(key []byte) error {
	b.hold()
	return b.s.del(key)
}

// Begin opens a multi-key transaction whose Commit joins the burst.
func (b *Burst) Begin() (*Txn, error) {
	b.hold()
	if b.s.broken {
		return nil, ErrBroken
	}
	return &Txn{s: b.s, b: b, ops: make(map[string]txOp)}, nil
}
