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
	// ReadPrimary serializes the read through the primary (the default;
	// identical to Group.Read).
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

// readBackupLocked performs the charged read on backup b's database copy,
// pinning the replica's measured-interval origin on its first served read.
func (g *Group) readBackupLocked(b *backup, off int, dst []byte) error {
	db := b.node.Space.ByName(vista.RegionDB)
	if db == nil || off < 0 || off+len(dst) > db.Size() {
		return vista.ErrBounds
	}
	if b.readGen != g.measureGen {
		b.readGen = g.measureGen
		b.readOrigin = b.node.Clock.Now()
	}
	b.node.Acc.Read(db.Base+uint64(off), dst)
	return nil
}

// ReadAt serves a read from backup replica's applied view and returns the
// view's commit sequence. Valid only under the active scheme and only from
// a fully enrolled (InSync, current-epoch) replica — a mid-join replica
// never serves. The read observes the freshest applied prefix and charges
// the backup's own CPU, not the primary's.
func (g *Group) ReadAt(replica, off int, dst []byte) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return 0, ErrCrashed
	}
	b, err := g.backupAt(replica)
	if err != nil {
		return 0, err
	}
	if g.redo == nil || !g.servableLocked(b) {
		return 0, ErrReplicaUnavailable
	}
	g.redo.applyDelivered(b)
	if err := g.readBackupLocked(b, off, dst); err != nil {
		return 0, err
	}
	return b.appliedTxns, nil
}

// RouteRead serves one read under spec's consistency discipline, picking a
// replica (or falling back to the primary) as the mode demands.
func (g *Group) RouteRead(off int, dst []byte, spec ReadSpec) (ReadResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return ReadResult{}, ErrCrashed
	}
	primary := g.store.Committed()

	if spec.Replica > 0 {
		res, err := g.pinnedReadLocked(off, dst, spec, primary)
		g.observeRoute(res, err, spec.Mode)
		return res, err
	}
	if spec.Mode == ReadPrimary || g.redo == nil || len(g.backups) == 0 {
		res, err := g.primaryReadLocked(off, dst, primary)
		g.observeRoute(res, err, ReadPrimary)
		return res, err
	}
	switch spec.Mode {
	case ReadYourWrites, ReadBounded:
		n := len(g.backups)
		start := g.readCursor
		g.readCursor++
		for i := 0; i < n; i++ {
			r := int((start + uint64(i)) % uint64(n))
			b := g.backups[r]
			if !g.servableLocked(b) {
				continue
			}
			g.redo.applyDelivered(b)
			seq := b.appliedTxns
			if spec.Mode == ReadYourWrites && seq < spec.MinSeq {
				continue
			}
			if spec.Mode == ReadBounded && primary-seq > spec.Bound {
				continue
			}
			if err := g.readBackupLocked(b, off, dst); err != nil {
				return ReadResult{}, err
			}
			res := ReadResult{Replica: r + 1, Seq: seq, Primary: primary}
			g.observeRoute(res, nil, spec.Mode)
			return res, nil
		}
		// No backup can satisfy the mode right now (all lagging, fenced,
		// or mid-join): the primary trivially can.
		res, err := g.primaryReadLocked(off, dst, primary)
		g.observeRoute(res, err, spec.Mode)
		return res, err
	case ReadQuorum:
		res, err := g.quorumReadLocked(off, dst, primary)
		g.observeRoute(res, err, spec.Mode)
		return res, err
	default:
		res, err := g.primaryReadLocked(off, dst, primary)
		g.observeRoute(res, err, ReadPrimary)
		return res, err
	}
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
// the group's transactions exactly like Group.Read.
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
	b, err := g.backupAt(spec.Replica - 1)
	if err != nil {
		return ReadResult{}, ErrReplicaUnavailable
	}
	if g.redo == nil || !g.servableLocked(b) {
		return ReadResult{}, ErrReplicaUnavailable
	}
	g.redo.applyDelivered(b)
	seq := b.appliedTxns
	if spec.Mode == ReadYourWrites && seq < spec.MinSeq {
		return ReadResult{}, ErrReplicaUnavailable
	}
	if spec.Mode == ReadBounded && primary-seq > spec.Bound {
		return ReadResult{}, ErrReplicaUnavailable
	}
	if err := g.readBackupLocked(b, off, dst); err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Replica: spec.Replica, Seq: seq, Primary: primary}, nil
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
		best     *backup
		bestIdx  int
		maxSeq   uint64
		views    int
		repaired int // views whose applied prefix the pump advanced
	)
	for i := 0; i < n && views < need; i++ {
		r := int((start + uint64(i)) % uint64(n))
		b := g.backups[r]
		if !g.servableLocked(b) {
			continue
		}
		before := b.appliedTxns
		g.redo.applyDelivered(b) // the repair pump: ordered-prefix advance
		if b.appliedTxns > before {
			repaired++
		}
		views++
		seq := b.appliedTxns
		if best == nil || seq > maxSeq {
			best, bestIdx, maxSeq = b, r, seq
		}
	}
	if views < need {
		// The primary completes the quorum and, as the max-sequence view,
		// serves the read.
		res, err := g.primaryReadLocked(off, dst, primary)
		if err != nil {
			return res, err
		}
		res.Repaired = repaired
		return res, nil
	}
	if err := g.readBackupLocked(best, off, dst); err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Replica: bestIdx + 1, Seq: maxSeq, Primary: primary, Repaired: repaired}, nil
}

// ReplicaElapsed returns the longest simulated time any node of the group
// — primary or read-serving backup — has accumulated since the last
// ResetMeasurement. With reads routed to backups the primary and the K
// read views run in parallel (like shards of a ShardedCluster), so the
// interval's wall time is the max over nodes, not the sum. Identical to
// Elapsed when no backup served a read this interval.
func (g *Group) ReplicaElapsed() sim.Time {
	e := g.Elapsed()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, b := range g.backups {
		if b.readGen != g.measureGen {
			continue
		}
		if be := b.node.Clock.Now() - b.readOrigin; be > e {
			e = be
		}
	}
	return e
}
