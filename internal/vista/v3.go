package vista

import (
	"fmt"

	"repro/internal/mem"
)

// v3 is the paper's improved logging design (Section 4.4): undo records
// live inline in a bump-pointer log — header followed by the saved data —
// so all undo-path stores are sequential. Sequential stores coalesce into
// full 32-byte Memory Channel packets, which is exactly why this version
// wins the primary-backup comparison despite shipping more bytes than
// mirroring by diff.
//
// Log record layout (8-byte aligned, starting at log offset 0 for every
// transaction):
//
//	[+0] base  (u32)  database offset
//	[+4] len   (u16)  range length
//	[+6] tag   (u16)  committed-count-plus-one of the writing txn, mod 2^16
//	[+8] data  (len bytes, padded to 8)
//
// The tag is truncated to 16 bits to keep the header at one word (Vista's
// logs carried similarly terse headers); a stale record escapes detection
// only if a record boundary from exactly 65536 transactions ago lines up
// at the same offset AND passes the bounds checks — within the already
// documented 1-safe window, this shrinks the residual hazard to practical
// irrelevance while halving the log's metadata volume.
//
// There is no persistent tail pointer and no fencing: commit is the single
// coalescible store that advances the committed count (1-safe — the paper's
// commit does not wait for the backup either). Recovery scans the log from
// offset zero and undoes the maximal prefix of records tagged with the
// in-flight transaction id; records from earlier transactions (stale bytes,
// or bytes that never reached the backup) fail the tag check and stop the
// scan. Because log stores are strictly sequential, write buffers drain
// them in order and the delivered log is always a prefix — the tag check is
// therefore exact up to the documented 1-safe window.
type v3 struct {
	logReg *mem.Region
	// tail is the volatile bump pointer (reset at commit/abort); the log
	// needs no persistent pointer thanks to the tag discipline.
	tail int
	// txnID tags records of the current transaction.
	txnID uint64
}

const (
	v3HdrSize = 8
	// v3MaxRange is the largest single set_range the 16-bit length field
	// can describe.
	v3MaxRange = 1<<16 - 1
)

func newV3(s *Store) (*v3, error) {
	lr, err := s.mem.Lookup(RegionUndoLog)
	if err != nil {
		return nil, err
	}
	return &v3{logReg: lr}, nil
}

func (e *v3) begin(s *Store) {
	e.tail = 0
	e.txnID = s.acc.ReadU64(s.control.Base+ctlCommitSeq) + 1
}

func (e *v3) setRange(s *Store, off, n int) error {
	if n > v3MaxRange {
		// Split oversized ranges into tail-recursive halves; real
		// applications' set_ranges are far smaller.
		if err := e.setRange(s, off, v3MaxRange); err != nil {
			return err
		}
		return e.setRange(s, off+v3MaxRange, n-v3MaxRange)
	}
	rec := v3HdrSize + pad8(n)
	if e.tail+rec > e.logReg.Size() {
		return fmt.Errorf("%w (%d of %d bytes)", ErrUndoFull, e.tail, e.logReg.Size())
	}
	addr := e.logReg.Base + uint64(e.tail)
	// Header and before-image are appended with strictly sequential
	// stores: the whole record coalesces into 32-byte packets.
	s.acc.WriteU32(addr, uint32(off), mem.CatMeta)
	s.acc.WriteU32(addr+4, uint32(n)|uint32(uint16(e.txnID))<<16, mem.CatMeta)
	s.acc.Copy(addr+v3HdrSize, s.dbAddr(off), n, mem.CatUndo)
	e.tail += rec
	return nil
}

func (e *v3) commit(s *Store) error {
	// "De-allocate by moving the log pointer back": volatile, free. The
	// committed count is the single durable commit point; its store
	// coalesces with neighbouring control-word updates.
	e.tail = 0
	s.bumpCommitSeq()
	return nil
}

func (e *v3) abort(s *Store) error { return e.undoScan(s) }

// undoScan restores the before-images of the in-flight transaction: it
// scans records from log offset zero while they carry the in-flight tag
// (committed count + 1) and pass bounds checks, then applies them in
// reverse so overlapping set_ranges resolve to the oldest image. The scan
// is idempotent — re-running after an interrupted recovery replays the
// same restores.
//
// An undo does not advance the committed count, so the next transaction
// reuses the tag: each restored record is therefore retired (its length/tag
// word zeroed), or a later, shorter transaction's undo would walk past its
// own tail into these records and put their before-images over whatever
// has been installed since. The first record goes last, so an interrupted
// retirement leaves a prefix the next scan replays whole.
func (e *v3) undoScan(s *Store) error {
	seq := s.acc.ReadU64(s.control.Base + ctlCommitSeq)
	want := uint16(seq + 1)
	type recRef struct{ base, n, dataOff int }
	var recs []recRef
	for off := 0; off+v3HdrSize <= e.logReg.Size(); {
		addr := e.logReg.Base + uint64(off)
		base := int(s.acc.ReadU32(addr))
		lenTag := s.acc.ReadU32(addr + 4)
		if uint16(lenTag>>16) != want {
			break // stale, zero, or never-delivered record: end of scan
		}
		n := int(lenTag & 0xFFFF)
		if n <= 0 || base < 0 || base+n > s.cfg.DBSize || off+v3HdrSize+pad8(n) > e.logReg.Size() {
			break // torn header inside the 1-safe window
		}
		recs = append(recs, recRef{base: base, n: n, dataOff: off + v3HdrSize})
		off += v3HdrSize + pad8(n)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		s.acc.Copy(s.dbAddr(r.base), e.logReg.Base+uint64(r.dataOff), r.n, mem.CatModified)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		s.acc.WriteU32(e.logReg.Base+uint64(recs[i].dataOff-4), 0, mem.CatMeta)
	}
	e.tail = 0
	return nil
}

func (e *v3) recoverInFlight(s *Store) error { return e.undoScan(s) }

// recoverBackup is identical: the log is replicated and the tag discipline
// already rejects bytes the SAN never delivered.
func (e *v3) recoverBackup(s *Store) error { return e.undoScan(s) }

func pad8(n int) int { return (n + 7) &^ 7 }

var _ engine = (*v3)(nil)
