package kv

import (
	"cmp"
	"errors"
	"slices"
)

// Txn is a multi-key transaction: reads see the store plus the
// transaction's own buffered writes; Put and Delete buffer until Commit,
// which stages every key through the store's own put and del — the writes
// Store.Put and Store.Delete make — in the store's open transaction, keys
// in ascending region order. Each key is confined to its region, hence to
// one shard, so each key changes atomically, and all of the transaction's
// keys on one shard become visible together or not at all. On a one-shard
// deployment that is the whole transaction. On a multi-shard deployment
// the DB commits the touched shards one after another — the underlying
// layer has no cross-shard atomic commit — so a crash at the wrong instant
// can expose the keys of a prefix of the shards.
type Txn struct {
	s     *Store
	b     *Burst // the burst the transaction joins, nil for Store.Begin
	done  bool
	order []string        // distinct keys in first-touch order
	ops   map[string]txOp // latest buffered op per key
}

type txOp struct {
	val []byte
	del bool
}

// Begin opens a multi-key transaction. The store stays usable for
// independent operations while the transaction buffers; conflicting
// writes outside the transaction are last-writer-wins at Commit.
func (s *Store) Begin() (*Txn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.begin(nil)
}

// begin is the one Txn constructor (b nil outside a burst), under s.mu.
func (s *Store) begin(b *Burst) (*Txn, error) {
	if s.broken {
		return nil, ErrBroken
	}
	return &Txn{s: s, b: b, ops: make(map[string]txOp)}, nil
}

// Get returns the value under key as the transaction sees it: a buffered
// Put or Delete wins over the store.
func (t *Txn) Get(key []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	if op, ok := t.ops[string(key)]; ok {
		if op.del {
			return nil, ErrNotFound
		}
		out := make([]byte, len(op.val))
		copy(out, op.val)
		return out, nil
	}
	if t.b != nil {
		return t.b.Get(key)
	}
	return t.s.Get(key)
}

// Put buffers a write of value under key.
func (t *Txn) Put(key, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key)+len(value) > t.s.geo.payload() {
		return ErrTooLarge
	}
	t.track(key)
	t.ops[string(key)] = txOp{val: append([]byte(nil), value...)}
	return nil
}

// Delete buffers a deletion of key; deleting an absent key is a no-op at
// Commit.
func (t *Txn) Delete(key []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	t.track(key)
	t.ops[string(key)] = txOp{del: true}
	return nil
}

func (t *Txn) track(key []byte) {
	if _, seen := t.ops[string(key)]; !seen {
		t.order = append(t.order, string(key))
	}
}

// Abort discards the buffered writes.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	return nil
}

// Commit stages every buffered write through put and del in the store's
// open transaction, unsplit whatever its size, after committing what that
// transaction held (inside a burst, the burst's earlier mutations; Seal
// reports how that went). Called directly, Commit then commits the keys and
// returns the result; inside a burst they stay staged until Seal, like a
// Burst.Put. A failure while they stage aborts the transaction, takes back
// those keys alone and returns the error, breaking the store only for a
// crash or a deposition. On error nothing is applied (single-shard
// deployments) or at most the keys of a prefix of the shards are
// (multi-shard; see the type comment). A repro.ErrSafetyUnavailable return
// means the writes are durable on the serving node but were not
// acknowledged at the configured safety level.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	s := t.s
	if t.b != nil {
		t.b.hold()
	} else {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.commitOpen()
	if s.broken {
		return ErrBroken
	}
	// Ascending region order makes the order shards are touched in — and
	// the charged write sequence — a function of the key set alone.
	region := func(k string) uint64 { r, _ := s.geo.place([]byte(k)); return r }
	slices.SortStableFunc(t.order, func(a, b string) int { return cmp.Compare(region(a), region(b)) })
	var err error
	s.open.txn = true
	for _, k := range t.order {
		if op := t.ops[k]; op.del {
			if err = s.del([]byte(k)); errors.Is(err, ErrNotFound) {
				err = nil // deleting an absent key is a no-op
			}
		} else {
			err = s.put([]byte(k), op.val)
		}
		if err != nil {
			err = s.lose(err)
			break
		}
	}
	s.open.txn = false
	if err != nil || t.b != nil {
		return err
	}
	return s.end()
}
