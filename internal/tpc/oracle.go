package tpc

import (
	"bytes"
	"fmt"

	"repro/internal/replication"
)

// Oracle shadows committed transactions in a plain byte array so tests can
// verify that the instrumented, replicated store computes exactly the same
// database state as a trivial executor.
type Oracle struct {
	shadow []byte
	cur    oracleTx
}

// NewOracle returns an oracle for a database of the given size. The
// workload's Populate must be applied via Load before driving.
func NewOracle(dbSize int) *Oracle {
	return &Oracle{shadow: make([]byte, dbSize)}
}

// Load mirrors Group.Load for initial content.
func (o *Oracle) Load(off int, data []byte) error {
	copy(o.shadow[off:off+len(data)], data)
	return nil
}

// Shadow returns the oracle's database image.
func (o *Oracle) Shadow() []byte { return o.shadow }

// Compare checks a database image against the shadow and reports the first
// mismatching offset.
func (o *Oracle) Compare(db []byte) error {
	if len(db) != len(o.shadow) {
		return fmt.Errorf("tpc: oracle size %d != database size %d", len(o.shadow), len(db))
	}
	if i := firstMismatch(o.shadow, db); i >= 0 {
		return fmt.Errorf("tpc: database diverges from oracle at offset %d (%#x != %#x)", i, db[i], o.shadow[i])
	}
	return nil
}

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

// wrap returns a handle that stages writes and applies them to the shadow
// if and only if the underlying commit succeeds.
func (o *Oracle) wrap(tx replication.TxHandle) replication.TxHandle {
	o.cur = oracleTx{o: o, tx: tx, offs: o.cur.offs[:0], data: o.cur.data[:0], lens: o.cur.lens[:0]}
	return &o.cur
}

type oracleTx struct {
	o    *Oracle
	tx   replication.TxHandle
	offs []int
	lens []int
	data []byte
}

var _ replication.TxHandle = (*oracleTx)(nil)

func (t *oracleTx) SetRange(off, n int) error { return t.tx.SetRange(off, n) }

func (t *oracleTx) Read(off int, dst []byte) error { return t.tx.Read(off, dst) }

func (t *oracleTx) Write(off int, src []byte) error {
	if err := t.tx.Write(off, src); err != nil {
		return err
	}
	t.offs = append(t.offs, off)
	t.lens = append(t.lens, len(src))
	t.data = append(t.data, src...)
	return nil
}

func (t *oracleTx) Commit() error {
	if err := t.tx.Commit(); err != nil {
		return err
	}
	cursor := 0
	for i, off := range t.offs {
		copy(t.o.shadow[off:off+t.lens[i]], t.data[cursor:cursor+t.lens[i]])
		cursor += t.lens[i]
	}
	return nil
}

func (t *oracleTx) Abort() error { return t.tx.Abort() }

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
