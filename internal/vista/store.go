package vista

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/rio"
)

// control-region word offsets (all 8-byte words). The control region is a
// recoverable segment: recovery reads its roots to decide what to undo.
const (
	ctlCommitSeq = 0 // number of committed transactions
	ctlRoot      = 8 // V0: undo-list head; V3: undo-log tail; V1/V2: unused
)

// engine is the per-version behaviour behind the public API. Engines
// operate on the Store's accessor so every byte they move is charged and,
// in a replicated configuration, doubled onto the SAN.
type engine interface {
	// begin is called after API-cost accounting, with no transaction open.
	begin(s *Store)
	// setRange captures undo information for [off, off+n) of the database.
	setRange(s *Store, off, n int) error
	// commit makes the open transaction durable and releases undo state.
	commit(s *Store) error
	// abort rolls the open transaction back.
	abort(s *Store) error
	// recoverInFlight undoes a transaction interrupted by a crash, using
	// only reliable-memory state (control roots, heap, log, set-range
	// array). It must be idempotent: recovery can itself be interrupted.
	recoverInFlight(s *Store) error
	// recoverBackup brings a backup's regions to a consistent committed
	// state when the non-replicated structures (the set-range array for
	// V1/V2) are unavailable.
	recoverBackup(s *Store) error
}

// Store is one transaction server instance: an engine over a database held
// in reliable memory, accessed through an instrumented accessor.
//
// A Store's transactional operations are not safe for concurrent use: the
// paper's API assumes concurrency control in a separate layer (Section
// 2.1), and the replication.Group above it serializes all access on one
// per-group mutex. The counter accessors Stats and Committed are the
// exception — they read atomic shadows and may be called from any
// goroutine while a transaction runs (aggregate monitoring over live
// shards).
type Store struct {
	cfg Config
	acc *mem.Accessor
	mem *rio.Memory

	db      *mem.Region
	control *mem.Region

	eng     engine
	tx      *Tx
	crashed bool

	// freeTx is the recycled transaction handle: exactly one transaction
	// is open at a time, so one cached value keeps Begin allocation-free.
	// The usual pool hazard applies — a handle must not be touched after
	// Commit/Abort — and is enforced for the stale holder only until the
	// handle is reissued.
	freeTx *Tx

	// API counters, atomic so monitors can snapshot them mid-transaction.
	begins  atomic.Int64
	commits atomic.Int64
	aborts  atomic.Int64
	// committed shadows the ctlCommitSeq word in reliable memory: reading
	// the region's bytes would race with the owning stream's writes.
	committed atomic.Uint64
}

// Stats counts API-level activity.
type Stats struct {
	Begins  int64
	Commits int64
	Aborts  int64
}

// InTx reports whether a transaction is open — while one is, the
// database bytes may contain uncommitted in-place writes, so they are
// not a consistent image to snapshot.
func (s *Store) InTx() bool { return s.tx != nil }

// AdoptCommitSeq overwrites the committed-transaction counter in reliable
// memory and its atomic shadow, without charging simulated time. Cold
// restart uses it to seed a freshly formatted store with the sequence its
// recovered image corresponds to.
func (s *Store) AdoptCommitSeq(seq uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	s.control.WriteRaw(ctlCommitSeq, b[:])
	s.committed.Store(seq)
}

// Open initializes a Store over regions previously placed in rm's address
// space (see Layout/PlaceRegions). It formats the engine's persistent
// structures; the database contents are loaded separately via Load.
func Open(cfg Config, acc *mem.Accessor, rm *rio.Memory) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, acc: acc, mem: rm}
	if err := s.bind(); err != nil {
		return nil, err
	}
	if err := s.makeEngine(true); err != nil {
		return nil, err
	}
	s.committed.Store(s.committedRaw())
	return s, nil
}

// RecoverMode selects the recovery path at takeover or restart.
type RecoverMode int

// Recovery modes.
const (
	// RecoverLocal restarts on the same reliable memory (Rio reboot):
	// every structure, including non-replicated ones, is present.
	RecoverLocal RecoverMode = iota + 1
	// RecoverBackup takes over on a backup's replicas, where
	// non-replicated structures hold no usable state.
	RecoverBackup
)

// Recover opens a Store over surviving reliable memory and rolls back any
// transaction that was in flight at the crash, returning the recovered
// store ready to serve new transactions.
func Recover(cfg Config, acc *mem.Accessor, rm *rio.Memory, mode RecoverMode) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, acc: acc, mem: rm}
	if err := s.bind(); err != nil {
		return nil, err
	}
	if err := s.makeEngine(false); err != nil {
		return nil, err
	}
	switch mode {
	case RecoverLocal:
		err = s.eng.recoverInFlight(s)
	case RecoverBackup:
		err = s.eng.recoverBackup(s)
	default:
		err = fmt.Errorf("vista: invalid recover mode %d", int(mode))
	}
	if err != nil {
		return nil, fmt.Errorf("vista: recovery failed: %w", err)
	}
	s.acc.Fence()
	s.committed.Store(s.committedRaw())
	return s, nil
}

func (s *Store) bind() error {
	var err error
	if s.db, err = s.mem.Lookup(RegionDB); err != nil {
		return err
	}
	if s.control, err = s.mem.Lookup(RegionControl); err != nil {
		return err
	}
	return nil
}

func (s *Store) makeEngine(format bool) error {
	switch s.cfg.Version {
	case V0Vista:
		e, err := newV0(s, format)
		if err != nil {
			return err
		}
		s.eng = e
	case V1MirrorCopy:
		e, err := newMirror(s, false)
		if err != nil {
			return err
		}
		s.eng = e
	case V2MirrorDiff:
		e, err := newMirror(s, true)
		if err != nil {
			return err
		}
		s.eng = e
	case V3InlineLog:
		e, err := newV3(s)
		if err != nil {
			return err
		}
		s.eng = e
	}
	return nil
}

// Config returns the store's effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Accessor exposes the instrumented accessor (replication and benchmarks
// share it for cost accounting).
func (s *Store) Accessor() *mem.Accessor { return s.acc }

// DBSize returns the database size in bytes.
func (s *Store) DBSize() int { return s.cfg.DBSize }

// Stats returns API activity counters. Safe for concurrent use.
func (s *Store) Stats() Stats {
	return Stats{
		Begins:  s.begins.Load(),
		Commits: s.commits.Load(),
		Aborts:  s.aborts.Load(),
	}
}

// Load installs initial database content without charging simulated time
// (database population happens before the measured interval). It keeps the
// mirror, when present, identical to the database, preserving the mirroring
// engines' invariant.
func (s *Store) Load(off int, data []byte) error {
	if off < 0 || off+len(data) > s.cfg.DBSize {
		return ErrBounds
	}
	s.db.WriteRaw(off, data)
	if m := s.mem.Space().ByName(RegionMirror); m != nil {
		m.WriteRaw(off, data)
	}
	return nil
}

// Read performs a non-transactional read of the database (charged).
func (s *Store) Read(off int, dst []byte) error {
	if s.crashed {
		return ErrCrashed
	}
	if off < 0 || off+len(dst) > s.cfg.DBSize {
		return ErrBounds
	}
	s.acc.Read(s.db.Base+uint64(off), dst)
	return nil
}

// ReadRaw reads database bytes without charging simulated time (test
// oracles, state dumps).
func (s *Store) ReadRaw(off int, dst []byte) { s.db.ReadRaw(off, dst) }

// Committed returns the number of committed transactions recorded in
// reliable memory, without charging simulated time. It reads an atomic
// shadow of the control word, so it is safe to call from any goroutine
// while a transaction runs.
func (s *Store) Committed() uint64 { return s.committed.Load() }

// committedRaw reads the committed count from the control region's bytes
// (used to seed the shadow when a store opens over existing memory).
func (s *Store) committedRaw() uint64 {
	var b [8]byte
	s.control.ReadRaw(ctlCommitSeq, b[:])
	return leU64(b[:])
}

// MarkCrashed makes every subsequent API call fail; the replication layer
// calls it when it crashes the node under the store.
func (s *Store) MarkCrashed() { s.crashed = true }

// Begin opens a transaction. Exactly one transaction may be open at a time
// (concurrency control is a separate layer in the paper's design). The
// returned handle is recycled once Commit or Abort completes; holding it
// past that point is a use-after-finish bug.
func (s *Store) Begin() (*Tx, error) {
	if s.crashed {
		return nil, ErrCrashed
	}
	if s.tx != nil {
		return nil, ErrTxActive
	}
	s.acc.Charge(s.acc.Params.TxBegin)
	s.begins.Add(1)
	tx := s.freeTx
	if tx == nil {
		tx = &Tx{}
	}
	s.freeTx = nil
	tx.s = s
	tx.done = false
	tx.ranges = tx.ranges[:0]
	s.tx = tx
	s.eng.begin(s)
	return tx, nil
}

// Tx is an open transaction. Its methods are not safe for concurrent use.
type Tx struct {
	s      *Store
	ranges []rng
	done   bool
}

type rng struct{ off, n int }

// SetRange declares that the transaction may modify [off, off+n) of the
// database, capturing undo information per the engine's design.
func (t *Tx) SetRange(off, n int) error {
	s, err := t.check()
	if err != nil {
		return err
	}
	if off < 0 || n <= 0 || off+n > s.cfg.DBSize {
		return ErrBounds
	}
	s.acc.Charge(s.acc.Params.SetRangeCall)
	if err := s.eng.setRange(s, off, n); err != nil {
		return err
	}
	t.ranges = append(t.ranges, rng{off: off, n: n})
	return nil
}

// Write stores src at database offset off, in place. The bytes must lie
// within a declared range.
func (t *Tx) Write(off int, src []byte) error {
	s, err := t.check()
	if err != nil {
		return err
	}
	if off < 0 || off+len(src) > s.cfg.DBSize {
		return ErrBounds
	}
	if !t.covered(off, len(src)) {
		return ErrOutOfRange
	}
	s.acc.Write(s.db.Base+uint64(off), src, mem.CatModified)
	return nil
}

// Read loads database bytes (transactions may read anywhere).
func (t *Tx) Read(off int, dst []byte) error {
	s, err := t.check()
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > s.cfg.DBSize {
		return ErrBounds
	}
	s.acc.Read(s.db.Base+uint64(off), dst)
	return nil
}

// Commit makes the transaction durable. With a 1-safe backup, Commit
// returns as soon as the local commit completes (paper Section 2.1).
func (t *Tx) Commit() error {
	s, err := t.check()
	if err != nil {
		return err
	}
	s.acc.Charge(s.acc.Params.TxCommit)
	if err := s.eng.commit(s); err != nil {
		return err
	}
	t.finish()
	s.commits.Add(1)
	return nil
}

// Abort rolls the transaction back using the engine's undo state.
func (t *Tx) Abort() error {
	s, err := t.check()
	if err != nil {
		return err
	}
	s.acc.Charge(s.acc.Params.TxAbort)
	if err := s.eng.abort(s); err != nil {
		return err
	}
	t.finish()
	s.aborts.Add(1)
	return nil
}

func (t *Tx) check() (*Store, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if t.s.crashed {
		return nil, ErrCrashed
	}
	return t.s, nil
}

func (t *Tx) covered(off, n int) bool {
	for _, r := range t.ranges {
		if off >= r.off && off+n <= r.off+r.n {
			return true
		}
	}
	return false
}

func (t *Tx) finish() {
	t.done = true
	t.s.tx = nil
	t.s.freeTx = t
}

// bumpCommitSeq advances the committed-transaction counter in reliable
// memory (metadata, replicated) and its atomic shadow.
func (s *Store) bumpCommitSeq() {
	seq := s.acc.ReadU64(s.control.Base + ctlCommitSeq)
	s.acc.WriteU64(s.control.Base+ctlCommitSeq, seq+1, mem.CatMeta)
	s.committed.Store(seq + 1)
}

// dbAddr translates a database offset to a simulated address.
func (s *Store) dbAddr(off int) uint64 { return s.db.Base + uint64(off) }

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
