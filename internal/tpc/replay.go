package tpc

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro"
	"repro/internal/replication"
)

// firstMismatch returns the first offset at which a and b differ, or -1
// when they are equal.
func firstMismatch(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	n := len(a)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// auditImage is the one audit of every drill: c's image over w's layout
// must be exactly the replay oracle's after k committed transactions of
// w's stream from seed — no acknowledged byte missing, wherever the
// placement moved it, and no byte of another transaction applied.
func auditImage(c *repro.Cluster, w Workload, seed uint64, k int64) error {
	want, err := Replay(w, Options{Seed: seed}, k)
	if err != nil {
		return err
	}
	got := make([]byte, len(want))
	c.ReadRaw(0, got)
	i := firstMismatch(want, got)
	if i < 0 {
		return nil
	}
	n := 0
	for j := i; j < len(want); j++ {
		if want[j] != got[j] {
			n++
		}
	}
	return fmt.Errorf("tpc: image diverges from the replay oracle at offset %d after %d transactions (%d bytes differ)", i, k, n)
}

// shadowTx executes transactions directly against a byte array: the pure
// reference semantics used to reconstruct "state after K commits" for
// crash/failover verification. With keep set it saves the before-image of
// every write, so Abort can restore exactly the bytes the transaction
// wrote.
type shadowTx struct {
	db    []byte
	keep  bool
	undo  []int  // the offsets of the writes since Commit or Abort, paired with
	sizes []int  // their lengths; their before-images lie back to back in
	saved []byte // saved
}

var _ replication.TxHandle = (*shadowTx)(nil)

func (t *shadowTx) SetRange(int, int) error { return nil }

func (t *shadowTx) Read(off int, dst []byte) error {
	copy(dst, t.db[off:off+len(dst)])
	return nil
}

func (t *shadowTx) Write(off int, src []byte) error {
	dst := t.db[off : off+len(src)]
	if t.keep {
		t.undo, t.sizes = append(t.undo, off), append(t.sizes, len(src))
		t.saved = append(t.saved, dst...)
	}
	copy(dst, src)
	return nil
}

func (t *shadowTx) Commit() error {
	t.undo, t.sizes, t.saved = t.undo[:0], t.sizes[:0], t.saved[:0]
	return nil
}

// Abort puts the before-images back, newest first, so a byte written twice
// gets the value it had before the transaction.
func (t *shadowTx) Abort() error {
	pos := len(t.saved)
	for i := len(t.undo) - 1; i >= 0; i-- {
		pos -= t.sizes[i]
		copy(t.db[t.undo[i]:], t.saved[pos:pos+t.sizes[i]])
	}
	return t.Commit()
}

// Replay reconstructs the database image after exactly commits committed
// transactions of the given workload/seed/abort schedule, mirroring Run's
// loop (including its warmup prefix, which also mutates state). Workloads
// are deterministic given the seed and the evolving database image, so the
// result is the unique "state after K commits".
//
// The returned slice is freshly allocated; w must be a fresh workload laid
// out for the same database size.
func Replay(w Workload, opts Options, commits int64) ([]byte, error) {
	db, _, err := replay(w, opts, commits)
	return db, err
}

// replay is Replay that also returns the stream's generator as it stands
// after the replayed transactions, where a rewound stream resumes.
func replay(w Workload, opts Options, commits int64) ([]byte, *rand.Rand, error) {
	db := make([]byte, w.DBSize())
	load := func(off int, data []byte) error {
		copy(db[off:off+len(data)], data)
		return nil
	}
	if err := w.Populate(load); err != nil {
		return nil, nil, err
	}
	r := NewRand(opts.Seed)
	// Before-images are kept only when an abort is scheduled.
	tx := &shadowTx{db: db, keep: opts.AbortEvery > 0}

	done := int64(0)
	for i := int64(0); done < opts.Warmup+commits; i++ {
		abort := i >= opts.Warmup && opts.AbortEvery > 0 && (i+1)%opts.AbortEvery == 0
		if err := w.Txn(r, tx, i); err != nil {
			return nil, nil, err
		}
		if abort {
			// The aborted effects vanish; the randomness stays consumed.
			tx.Abort()
			continue
		}
		tx.Commit()
		done++
	}
	return db, r, nil
}
