// Replica-served lookups: GetAt and ScanAt route a lookup's charged reads
// through the deployment's replica read views (repro.ReadOpts), so backups
// serve the read traffic the primary would otherwise absorb. Get and Scan
// are the same operations with the zero ReadOpts, which asks for the
// primary's view, not the primary's CPU: read at bound 0 (lookupOpts), it
// is served by a backup that has applied exactly what the primary
// committed, with the primary's bytes, and by the primary otherwise — a
// burst's deferred write, an open group-commit batch, a lingering 1-safe
// pointer, a passive or standalone deployment, a backup not enrolled in
// the current epoch. The mutations' own probes read the primary.
//
// One operation, one view: the first routed read picks a serving replica
// (or the primary) per the consistency mode, and every subsequent read of
// the operation is pinned to that same replica. A backup's copy is
// transaction-consistent at every applied commit (active scheme), but the
// backup applies what has been delivered before each read it serves, so
// its view can advance between two reads of one lookup — and an overwrite
// rewrites a record in place, so a bucket word, a record header and the
// value bytes read across such an advance need not belong together. Every
// read reports the view's commit sequence (repro.ReadResult.Seq); a lookup,
// or one entry of a scan, whose reads did not all report the same one is
// read again, viewRetries times at most, and then served by the primary.
// What is returned therefore comes from a single consistent snapshot that
// satisfies the mode's floor:
//
//   - ReadYourWrites with the session's token (repro.DB.Token captured
//     after the session's last commit) observes every write the session
//     made — including the probe chain the write went through.
//   - ReadBounded may miss recent writes, but never more than the
//     advertised bound (in commit sequences, per shard).
//   - ReadQuorum's first read inspects a majority of the replica group,
//     so the pinned view has seen every acknowledged commit.
//
// If the pinned replica loses eligibility mid-operation (crashed, paused,
// deposed by a membership change, or — on another shard of a sharded
// deployment — unable to satisfy the mode's floor there), the operation
// observes repro.ErrReplicaUnavailable and transparently restarts on the
// primary, which can always serve.
package kv

import (
	"errors"

	"repro"
)

// viewRetries is how often a lookup or scan entry that saw its replica
// view advance is read again before the primary serves it.
const viewRetries = 2

// lookupOpts makes a lookup of the unpinned primary a bound-0 read.
func lookupOpts(opts repro.ReadOpts) repro.ReadOpts {
	if opts.Mode == repro.ReadPrimary && opts.Replica == 0 {
		return repro.ReadOpts{Mode: repro.ReadBounded}
	}
	return opts
}

// view routes one operation's charged reads per the caller's ReadOpts,
// pinning the replica the first routed read chose. It is recycled under
// the Store mutex (Store.vw/vwRead), so every lookup and scan stays
// allocation-free.
type view struct {
	s    *Store
	opts repro.ReadOpts
	res  repro.ReadResult
	// Reads since mark: a lookup's reads all land in the key's region,
	// hence on one shard, so their sequences are comparable.
	reads   int
	seq     uint64 // the first one's view
	shifted bool   // a later one saw another
}

// begin arms the recycled view for one operation.
func (v *view) begin(opts repro.ReadOpts) {
	v.opts = opts
	v.res = repro.ReadResult{}
	v.mark()
}

// mark starts a run of reads that must see one view.
func (v *view) mark() { v.reads, v.shifted = 0, false }

// moved reports whether the reads since mark saw more than one view. The
// primary's view never moves: the store mutex keeps it still.
func (v *view) moved() bool { return v.shifted }

// read is the operation's readFn.
func (v *view) read(off int, dst []byte) error {
	res, err := v.s.db.ReadAt(off, dst, v.opts)
	if err != nil {
		return err
	}
	if v.opts.Replica == 0 {
		if res.Replica > 0 {
			// Pin the chosen replica: the rest of the operation reads the
			// same view (re-validated per shard against the mode's floor).
			v.opts.Replica = res.Replica
		} else {
			// The primary served; keep the whole operation there.
			v.opts.Mode = repro.ReadPrimary
		}
	}
	if res.Replica > 0 {
		if v.reads == 0 {
			v.seq = res.Seq
		} else if res.Seq != v.seq {
			v.shifted = true
		}
		v.reads++
	}
	v.res = res
	return nil
}

// GetAt returns the value stored under key, served under opts' consistency
// discipline (see repro.ReadOpts), plus where the lookup was served. The
// returned slice is freshly allocated. The zero ReadOpts is exactly Get.
func (s *Store) GetAt(key []byte, opts repro.ReadOpts) ([]byte, repro.ReadResult, error) {
	val, res, err := s.GetAppendAt(key, nil, opts)
	val, err = fresh(val, err)
	return val, res, err
}

// GetAppendAt is the allocation-free GetAt: it appends the value to dst
// and returns the extended slice (unextended on error), the serving
// replica, and any error. A lookup whose pinned replica cannot serve
// restarts on the primary; callers never see ErrReplicaUnavailable.
func (s *Store) GetAppendAt(key, dst []byte, opts repro.ReadOpts) ([]byte, repro.ReadResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getAt(key, dst, opts)
}

// getAt is GetAppendAt under s.mu: every lookup, the primary's included,
// reads through the recycled view — but a burst's, on a shard its open
// transaction has written.
func (s *Store) getAt(key, dst []byte, opts repro.ReadOpts) ([]byte, repro.ReadResult, error) {
	if err := s.check(key); err != nil {
		return dst, repro.ReadResult{}, err
	}
	if rd := s.reader(key, nil); rd != nil {
		// A burst's lookup on a shard its transaction has written: the
		// primary's bytes, through the transaction (see Store.reader).
		out, err := s.getAppend(rd, key, dst)
		return out, repro.ReadResult{}, err
	}
	opts = lookupOpts(opts)
	for try := 0; try <= viewRetries; try++ {
		s.vw.begin(opts)
		out, err := s.getAppend(s.vwRead, key, dst)
		if errors.Is(err, repro.ErrReplicaUnavailable) {
			break
		}
		if !s.vw.moved() {
			return out, s.vw.res, err
		}
	}
	// The primary, whose view the store mutex keeps still, serves what no
	// replica view could.
	s.vw.begin(repro.ReadOpts{})
	out, err := s.getAppend(s.vwRead, key, dst)
	return out, s.vw.res, err
}

// ScanAt is Scan served under opts' consistency discipline: the staged
// entries come from one replica (or the primary), each entry whole from
// one view of it, with the same restart-on-primary fallback as GetAt. fn
// runs after the store lock is released, on slices reused between calls.
func (s *Store) ScanAt(start []byte, limit int, opts repro.ReadOpts, fn func(key, value []byte) error) (int, repro.ReadResult, error) {
	s.mu.Lock()
	s.vw.begin(lookupOpts(opts))
	flat, bounds, err := s.stageScan(start, limit)
	if errors.Is(err, repro.ErrReplicaUnavailable) {
		s.vw.begin(repro.ReadOpts{})
		flat, bounds, err = s.stageScan(start, limit)
	}
	res := s.vw.res
	s.mu.Unlock()
	if err != nil {
		return 0, res, err
	}
	n, err := deliver(flat, bounds, fn)
	return n, res, err
}
