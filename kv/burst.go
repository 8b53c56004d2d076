package kv

import "repro"

// Burst runs a sequence of operations as one unit of acknowledgement: it
// takes the store at its first operation and holds it through Seal, and on
// a one-shard deployment the mutations' acknowledgement is deferred to that
// Seal — one pointer publish, one quorum round trip, one WAL sync for all
// of them (see repro.DB.DeferAcks). The primary runs the next burst while
// that round trip crosses back, so a longer burst buys fewer seals — SAN
// bytes and syncs — not less waiting. It is what a server answering a
// pipelined burst of requests uses: no result of a burst operation — reads
// included — may be shown to anyone before Seal has returned nil. Because
// the burst holds the store, no other caller can observe a write whose seal
// is still pending, and a Get inside the burst sees the burst's own writes.
//
// On a multi-shard deployment the burst only holds the store and every
// commit keeps its own wait. Nothing about ordering requires that — a
// mutation is one transaction on one shard wherever it lands — it is cost:
// a scope is a Defer and a Seal on every shard, per burst, and whether a
// burst spread over several shards earns that back has not been measured.
// The shape — operate, Seal, then answer — is the same. A deployment that
// grows under an open burst stays correct for the same reason: the scope
// keeps covering the shards it opened on, and a mutation that lands on a
// newer shard is acknowledged on its own.
//
// A Burst is reusable: after Seal the next operation takes the store
// again. It belongs to one goroutine at a time — kvserver's is passed from
// group leader to group leader — which must not call the Store's own
// methods (they take the same lock) between an operation and Seal.
type Burst struct {
	s         *Store
	held      bool           // the burst holds s.mu
	deferring bool           // scope is open
	scope     repro.AckScope // valid while deferring
}

// Burst returns an idle burst over the store.
func (s *Store) Burst() *Burst { return &Burst{s: s} }

// Deferring reports whether the burst holds an open deferral scope: whether
// going on before Seal can save its mutations an acknowledgement wait.
// False on a multi-shard deployment and on an idle burst.
func (b *Burst) Deferring() bool { return b.deferring }

// hold takes the store at the burst's first operation and, on a one-shard
// deployment, opens the deferral scope.
func (b *Burst) hold() {
	if b.held {
		return
	}
	s := b.s
	s.mu.Lock()
	b.held = true
	if s.db.Shards() == 1 {
		b.scope = s.db.DeferAcks()
		b.deferring = true
	}
}

// Seal ends the burst: the deferred acknowledgements are collected, the
// store is released, and only a nil return makes the burst's results fit
// to show. repro.ErrCrashed means the primary died while the burst held
// unacknowledged commits: they are gone with it, the deployment admitted
// nothing further from the burst, the store is broken exactly as by a
// failed Commit — Reopen after the failover, and every key reads what it
// held before the burst — and nothing the burst returned may be
// acknowledged. repro.ErrSafetyUnavailable means what it means from Put:
// durable on the serving node, acknowledgement discipline not met, the
// index correct. Seal on an idle burst is a no-op.
func (b *Burst) Seal() error {
	if !b.held {
		return nil
	}
	var err error
	if b.deferring {
		b.deferring = false
		if err = b.scope.Seal(); err != nil {
			err = b.s.fail(err)
		}
	}
	b.held = false
	b.s.mu.Unlock()
	return err
}

// Get is Store.Get inside the burst.
func (b *Burst) Get(key []byte) ([]byte, error) { return fresh(b.GetAppend(key, nil)) }

// GetAppend is Store.GetAppend inside the burst.
func (b *Burst) GetAppend(key, dst []byte) ([]byte, error) {
	b.hold()
	out, _, err := b.s.getAt(key, dst, repro.ReadOpts{})
	return out, err
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
