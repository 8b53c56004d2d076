package kv

import "repro"

// Burst runs a sequence of operations as one unit of acknowledgement: it
// takes the store at its first operation and holds it through Seal. Its
// PUTs and DELETEs run in one open transaction, which writes one redo
// record per shard they touched; Seal commits it and then pays, on each of
// those shards, one pointer publish, one quorum round trip and one WAL sync
// (see repro.DB.DeferAcks). The primary runs the next burst while that
// round trip crosses back, so even a burst of one PUT saves its primary the
// wait; an idle shard is charged nothing. It is what a server answering a
// pipelined burst of requests uses: no result of a burst operation — reads
// included — may be shown to anyone before Seal has returned nil. Because
// the burst holds the store, no other caller can observe a write whose seal
// is still pending, and a Get inside the burst sees the burst's own writes:
// on a shard the transaction has written, every read goes through it.
//
// The transaction commits early, and the next mutation opens another, when
// its undo images could pass a fixed share of the V3 undo log, and when a
// multi-key Txn of the burst commits: the Txn's keys stage in the next one,
// unsplit, until Seal. While open, it holds the transaction slot of every
// shard it wrote, so a rebalance's cut-over off such a shard waits for the
// Seal. A DB error inside it aborts it: every mutation staged there is
// lost, the store breaks, and Seal reports the loss — except while a Txn
// stages, whose Commit reports its own failure and takes back its own keys.
//
// A Burst is reusable: after Seal the next operation takes the store
// again. It belongs to one goroutine at a time — kvserver's is passed from
// group leader to group leader — which must not call the Store's own
// methods (they take the same lock) between an operation and Seal.
type Burst struct {
	s     *Store
	held  bool           // the burst holds s.mu and scope is open
	scope repro.AckScope // valid while held
}

// Burst returns an idle burst over the store.
func (s *Store) Burst() *Burst { return &Burst{s: s} }

// hold takes the store at the burst's first operation and opens the
// deferral scope on every current shard.
func (b *Burst) hold() {
	if b.held {
		return
	}
	b.s.mu.Lock()
	b.held = true
	b.scope = b.s.db.DeferAcks()
}

// Seal ends the burst: the open transaction commits, the deferred
// acknowledgements are collected, the store is released, and only a nil
// return makes the burst's results fit to show. repro.ErrCrashed — ahead
// of another shard's degraded seal — means a shard's primary died holding
// the burst's unacknowledged mutations: they are gone, that shard admitted
// nothing further from the burst, the store is broken as by a failed
// Commit (Reopen after the failover; that shard's keys read what they held
// before the burst, and so may other shards' keys, whose part of the
// transaction aborted with it), and nothing the burst returned may
// be acknowledged. ErrBroken means a mutation's failure aborted the
// transaction, with the same consequences. repro.ErrSafetyUnavailable means
// what it means from Put: durable on the serving node, acknowledgement
// discipline not met, the index correct. Seal on an idle burst is a no-op.
func (b *Burst) Seal() error {
	if !b.held {
		return nil
	}
	s := b.s
	err := s.end()
	if serr := b.scope.Seal(); serr != nil {
		err = worse(err, s.fail(serr))
	}
	b.held = false
	s.mu.Unlock()
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
	return b.s.begin(b)
}
