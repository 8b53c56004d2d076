package tpc

import (
	"bytes"

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

// shadowTx executes transactions directly against a byte array: the pure
// reference semantics used to reconstruct "state after K commits" for
// crash/failover verification.
type shadowTx struct {
	db []byte
}

var _ replication.TxHandle = (*shadowTx)(nil)

func (t *shadowTx) SetRange(int, int) error { return nil }

func (t *shadowTx) Read(off int, dst []byte) error {
	copy(dst, t.db[off:off+len(dst)])
	return nil
}

func (t *shadowTx) Write(off int, src []byte) error {
	copy(t.db[off:off+len(src)], src)
	return nil
}

func (t *shadowTx) Commit() error { return nil }
func (t *shadowTx) Abort() error  { return nil }

// Replay reconstructs the database image after exactly commits committed
// transactions of the given workload/seed/abort schedule, mirroring Run's
// loop (including its warmup prefix, which also mutates state). Workloads
// are deterministic given the seed and the evolving database image, so the
// result is the unique "state after K commits".
//
// The returned slice is freshly allocated; w must be a fresh workload laid
// out for the same database size.
func Replay(w Workload, opts Options, commits int64) ([]byte, error) {
	db := make([]byte, w.DBSize())
	load := func(off int, data []byte) error {
		copy(db[off:off+len(data)], data)
		return nil
	}
	if err := w.Populate(load); err != nil {
		return nil, err
	}
	r := NewRand(opts.Seed)
	tx := &shadowTx{db: db}
	scratch := make([]byte, len(db))

	done := int64(0)
	for i := int64(0); done < opts.Warmup+commits; i++ {
		abort := i >= opts.Warmup && opts.AbortEvery > 0 && (i+1)%opts.AbortEvery == 0
		if abort {
			// Run against a scratch copy so aborted effects vanish,
			// while consuming exactly the same randomness.
			copy(scratch, db)
			sc := &shadowTx{db: scratch}
			if err := w.Txn(r, sc, i); err != nil {
				return nil, err
			}
			continue
		}
		if err := w.Txn(r, tx, i); err != nil {
			return nil, err
		}
		done++
	}
	return db, nil
}
