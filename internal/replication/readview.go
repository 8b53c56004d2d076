// Replica read views: backups serving reads under an explicit consistency
// knob. The paper buys K backups for fault tolerance and then leaves them
// idle between failures; with the active scheme every backup's database
// copy is transaction-consistent at each applied redo record, so the idle
// capacity can serve reads — the only question is how stale a view the
// caller will tolerate.
//
// The redo stream gives every commit a dense, totally ordered sequence
// number (the store's committed counter on the primary, the applied-record
// counter on a backup), so the three classic consistency disciplines
// reduce to monotonic integer comparisons instead of vector clocks:
//
//	ReadYourWrites  serve from any backup whose applied sequence has
//	                reached the caller's commit token; else the primary.
//	ReadBounded     serve from any backup whose applied sequence is
//	                within d commit sequences of the primary's committed
//	                counter; else the primary.
//	ReadQuorum      inspect a majority of the backups — ceil((K+1)/2),
//	                which intersects every commit quorum — take the
//	                max-sequence view, and repair the laggards.
//
// Only a fully enrolled replica may serve: InSync state AND the current
// membership epoch, the same predicate that gates acknowledgements. A
// mid-join replica (Syncing/CatchingUp) holds a fuzzy copy; a Paused or
// Gated replica holds a consistent but frozen prefix whose lag is
// unbounded; neither is a read view. Read repair never writes data back —
// it pumps the laggard's applyDelivered, an ordered-prefix advance of
// records the primary already published, so a repair can never plant bytes
// that a failover would have discarded.
package replication

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/vista"
)

// ErrReplicaUnavailable is returned when a read pinned to a specific
// replica cannot be served by it: the group was built Passive (whose mirror
// copies are torn mid-transaction), the replica is not fully enrolled
// (mid-join, paused, gated, crashed, or epoch-fenced — after a failover,
// until Repair re-enrolls it), or its applied sequence cannot satisfy the
// requested consistency mode.
var ErrReplicaUnavailable = errors.New("replication: replica cannot serve this read")

// ReadMode selects the consistency discipline of a routed read.
type ReadMode int

const (
	// ReadPrimary serializes the read through the primary (the default).
	ReadPrimary ReadMode = iota
	// ReadYourWrites serves from a backup whose applied sequence has
	// reached ReadSpec.MinSeq, else the primary.
	ReadYourWrites
	// ReadBounded serves from a backup within ReadSpec.Bound commit
	// sequences of the primary's committed counter, else the primary.
	ReadBounded
	// ReadQuorum reads a majority of the replica group and serves the
	// max-sequence view, repairing laggards.
	ReadQuorum
)

// String names the mode.
func (m ReadMode) String() string {
	switch m {
	case ReadPrimary:
		return "primary"
	case ReadYourWrites:
		return "ryw"
	case ReadBounded:
		return "bounded"
	case ReadQuorum:
		return "quorum"
	default:
		return "ReadMode(?)"
	}
}

// Valid reports whether m is a defined read mode.
func (m ReadMode) Valid() bool { return m >= ReadPrimary && m <= ReadQuorum }

// ReadSpec describes one routed read.
type ReadSpec struct {
	Mode ReadMode
	// MinSeq is the caller's commit-sequence token floor (ReadYourWrites).
	MinSeq uint64
	// Bound is the tolerated lag in commit sequences (ReadBounded).
	Bound uint64
	// Replica pins the read: 0 routes automatically, r ≥ 1 serves only
	// from backup r-1 (after re-checking the mode's constraint there).
	Replica int
}

// ReadResult reports where a routed read was served.
type ReadResult struct {
	// Replica is 0 when the primary served, r ≥ 1 when backup r-1 did.
	Replica int
	// Seq is the serving view's commit sequence (the applied-record count
	// of the backup, or the committed counter when the primary served).
	Seq uint64
	// Primary is the primary's committed counter at routing time.
	Primary uint64
	// Repaired counts quorum-read laggards whose applied prefix the read
	// pumped forward.
	Repaired int
}

// servableLocked reports whether backup b may serve reads: fully enrolled
// in the current membership era — exactly the acknowledgement predicate.
func (g *Group) servableLocked(b *backup) bool {
	return b.state == StateInSync && b.epoch == g.epoch
}

// eligibleLocked applies what backup b has been delivered and reports its
// view's commit sequence and whether that view may serve a read under
// spec: b is servable, and its sequence meets the mode's floor
// (ReadYourWrites) or bound (ReadBounded). The other modes ask for a
// servable backup only.
func (g *Group) eligibleLocked(b *backup, spec ReadSpec, primary uint64) (uint64, bool) {
	if !g.servableLocked(b) {
		return 0, false
	}
	if b.appliedTxns < primary { // else nothing is left to apply
		g.redo.applyDelivered(b)
	}
	seq := b.appliedTxns
	switch spec.Mode {
	case ReadYourWrites:
		return seq, seq >= spec.MinSeq
	case ReadBounded:
		return seq, primary-seq <= spec.Bound
	}
	return seq, true
}

// backupReadLocked performs the charged read on backup r's database copy,
// whose view is at seq, charges it to the backup's busy time and publishes
// the backup as a read server of the measured interval on its first served
// read (see Elapsed).
func (g *Group) backupReadLocked(r, off int, dst []byte, seq, primary uint64) (ReadResult, error) {
	n := g.backups[r].node
	db := n.Space.ByName(vista.RegionDB)
	if off < 0 || off+len(dst) > db.Size() {
		return ReadResult{}, vista.ErrBounds
	}
	t0 := n.Clock.Now()
	n.Acc.Read(db.Base+uint64(off), dst)
	g.workLocked(n, sim.Dur(n.Clock.Now()-t0))
	g.noteReaderLocked(n)
	return ReadResult{Replica: r + 1, Seq: seq, Primary: primary}, nil
}

// RouteRead serves one read under spec's consistency discipline, picking a
// replica (or falling back to the primary) as the mode demands. It is the
// group's one read entry: the primary branch is a charged read of the
// serving store, serialized with the group's transactions.
func (g *Group) RouteRead(off int, dst []byte, spec ReadSpec) (ReadResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return ReadResult{}, ErrCrashed
	}
	primary := g.store.Committed()
	var (
		res ReadResult
		err error
	)
	mode := spec.Mode
	switch {
	case spec.Replica > 0:
		res, err = g.pinnedReadLocked(off, dst, spec, primary)
	case mode == ReadPrimary || !mode.Valid() || g.redo == nil || len(g.backups) == 0:
		mode = ReadPrimary
		res, err = g.primaryReadLocked(off, dst, primary)
	case mode == ReadQuorum:
		res, err = g.quorumReadLocked(off, dst, primary)
	default:
		res, err = g.anyReadLocked(off, dst, spec, primary)
	}
	g.observeRoute(res, err, mode)
	return res, err
}

// anyReadLocked serves a ReadYourWrites or ReadBounded read from the first
// eligible backup, rotating where the search starts across calls — except
// at bound 0, the primary's view, where the offset's 4 KiB page picks it,
// so each backup caches its share of the pages alone. When no backup
// qualifies (all lagging, fenced, or mid-join) the primary serves.
func (g *Group) anyReadLocked(off int, dst []byte, spec ReadSpec, primary uint64) (ReadResult, error) {
	n := len(g.backups)
	start := uint64(off) >> 12
	if spec.Mode != ReadBounded || spec.Bound != 0 {
		start = g.readCursor
		g.readCursor++
	}
	for i := 0; i < n; i++ {
		r := int((start + uint64(i)) % uint64(n))
		if seq, ok := g.eligibleLocked(g.backups[r], spec, primary); ok {
			return g.backupReadLocked(r, off, dst, seq, primary)
		}
	}
	return g.primaryReadLocked(off, dst, primary)
}

// observeRoute counts one routed read's outcome: a replica serve, a
// primary serve by choice, or a primary fallback under a replica-seeking
// mode. Quorum-read repair pumps count separately.
func (g *Group) observeRoute(res ReadResult, err error, mode ReadMode) {
	o := g.obs
	if o == nil || err != nil {
		return
	}
	switch {
	case res.Replica > 0:
		o.readReplica.Inc()
	case mode == ReadPrimary:
		o.readPrimary.Inc()
	default:
		o.readFallback.Inc()
	}
	if res.Repaired > 0 {
		o.readRepaired.Add(uint64(res.Repaired))
	}
}

// primaryReadLocked serves the read through the primary, serialized with
// the group's transactions.
func (g *Group) primaryReadLocked(off int, dst []byte, primary uint64) (ReadResult, error) {
	if err := g.store.Read(off, dst); err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Replica: 0, Seq: primary, Primary: primary}, nil
}

// pinnedReadLocked serves from exactly backup spec.Replica-1, re-checking
// the mode's constraint there; it never falls back (the caller owns that
// policy).
func (g *Group) pinnedReadLocked(off int, dst []byte, spec ReadSpec, primary uint64) (ReadResult, error) {
	r := spec.Replica - 1
	if g.redo == nil || r >= len(g.backups) {
		return ReadResult{}, ErrReplicaUnavailable
	}
	seq, ok := g.eligibleLocked(g.backups[r], spec, primary)
	if !ok {
		return ReadResult{}, ErrReplicaUnavailable
	}
	return g.backupReadLocked(r, off, dst, seq, primary)
}

// quorumReadLocked reads a majority of the replica group: it inspects (and
// pumps — the read repair) ceil((K+1)/2) enrolled backup views, rotating
// which ones across calls, and serves from the max-sequence member. Any
// majority of the backups intersects every commit quorum, so the max view
// has seen every acknowledged commit. When fewer enrolled backups exist,
// the primary completes the quorum and serves (it is the freshest replica
// by definition); the available laggards are still repaired.
func (g *Group) quorumReadLocked(off int, dst []byte, primary uint64) (ReadResult, error) {
	need := QuorumAcks(g.cfg.Backups)
	n := len(g.backups)
	start := g.readCursor
	g.readCursor++

	var (
		best     = -1
		maxSeq   uint64
		views    int
		repaired int // views whose applied prefix the pump advanced
	)
	for i := 0; i < n && views < need; i++ {
		r := int((start + uint64(i)) % uint64(n))
		before := g.backups[r].appliedTxns
		// The eligibility check applies what was delivered: for a quorum
		// read that pump is the read repair, an ordered-prefix advance.
		seq, ok := g.eligibleLocked(g.backups[r], ReadSpec{Mode: ReadQuorum}, primary)
		if !ok {
			continue
		}
		if seq > before {
			repaired++
		}
		views++
		if best < 0 || seq > maxSeq {
			best, maxSeq = r, seq
		}
	}
	var (
		res ReadResult
		err error
	)
	if views < need {
		// The primary completes the quorum and, as the max-sequence view,
		// serves the read.
		res, err = g.primaryReadLocked(off, dst, primary)
	} else {
		res, err = g.backupReadLocked(best, off, dst, maxSeq, primary)
	}
	if err == nil {
		res.Repaired = repaired
	}
	return res, err
}
