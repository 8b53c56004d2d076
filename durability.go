package repro

import "repro/internal/replication"

// DurabilityConfig switches on the per-replica disk tier: an append-only
// redo WAL mirroring the commit stream, periodic snapshot/checkpoint
// files, and a cold-restart recovery path that reloads the newest valid
// snapshot, replays the WAL tail, truncates at the first torn or corrupt
// record, and rejoins lagging replicas through the chunked transfer
// engine. The zero value disables the tier: nothing touches the host
// filesystem and the simulation's metrics are bit-for-bit those of a
// purely memory-replicated deployment.
//
// Disk time is host time, not simulated time: fsyncs piggyback on group
// commit (one fdatasync per batch flush, not per transaction) and never
// charge the simulated clock, so the paper's tables are unaffected.
type DurabilityConfig struct {
	// Dir is the deployment's durability directory. Shard i persists
	// under Dir/shard-NNN, each of its replicas in its own node-NNN slot
	// directory below that. Empty disables the tier.
	Dir string
	// SnapshotEvery is the number of commits between checkpoints
	// (snapshot write + WAL rotation + pruning). Default 1024. Smaller
	// intervals shorten cold-restart replay at the price of more
	// snapshot writes.
	SnapshotEvery int
	// SyncEvery is the number of group-commit flushes one fdatasync
	// covers. Default 1 — every flush is durable on return; larger
	// values trade a bounded tail of acked-but-unsynced transactions
	// for fewer fsyncs.
	SyncEvery int
}

// Enabled reports whether the configuration switches the disk tier on.
func (c DurabilityConfig) Enabled() bool { return c.Dir != "" }

// RecoveryInfo describes what a cold restart found in the durability
// directory.
type RecoveryInfo struct {
	// Recovered is true when any replica directory yielded prior state.
	Recovered bool
	// Era and Seq identify the winning replica's recovered position
	// (the era fences a deposed lineage's orphaned tail out).
	Era uint32
	Seq uint64
	// SnapSeq is the winner's base snapshot sequence; Replayed counts
	// the WAL records applied on top of it.
	SnapSeq  uint64
	Replayed int
	// TruncatedBytes counts corrupt or torn bytes dropped across every
	// replica directory.
	TruncatedBytes int64
	// Resynced counts replicas whose disk state matched the winner and
	// re-enrolled on the spot; Rejoined counts lagging (or corrupt)
	// replicas rebuilt through the chunked transfer engine.
	Resynced int
	Rejoined int
}

// DurabilityStatus is the introspection snapshot of the disk tier.
type DurabilityStatus struct {
	// Enabled reports whether the tier is on.
	Enabled bool
	// Dir is the queried shard's subdirectory of the deployment's
	// durability directory.
	Dir string
	// Era is the current durability era (bumped at every failover and
	// cold restart).
	Era uint32
	// Seq is the last commit sequence encoded into the WAL stream.
	Seq uint64
	// DurableSeq is the last sequence an fdatasync on the serving
	// replica has covered: the prefix a power loss cannot take.
	DurableSeq uint64
	// SnapshotSeq is the sequence of the most recent checkpoint.
	SnapshotSeq uint64
	// Replicas is the number of replica slots (directories) in use.
	Replicas int
	// Recovery describes what this incarnation's cold restart found.
	Recovery RecoveryInfo
}

// WALTail names the live WAL segment of one replica at the instant of a
// PowerFail, with the offset the last fdatasync covered. Bytes past
// Synced were in the page cache when the power went: a crash harness may
// truncate, bit-flip or zero them to model a torn write, and recovery
// must still come back with every synced transaction.
type WALTail struct {
	// Path is the live segment's file path.
	Path string
	// Synced is the segment offset the last fdatasync covered.
	Synced int64
}

func durabilityStatus(st replication.DurabilityStatus) DurabilityStatus {
	return DurabilityStatus{
		Enabled:     st.Enabled,
		Dir:         st.Dir,
		Era:         st.Era,
		Seq:         st.Seq,
		DurableSeq:  st.DurableSeq,
		SnapshotSeq: st.SnapshotSeq,
		Replicas:    st.Replicas,
		Recovery: RecoveryInfo{
			Recovered:      st.Recovery.Recovered,
			Era:            st.Recovery.Era,
			Seq:            st.Recovery.Seq,
			SnapSeq:        st.Recovery.SnapSeq,
			Replayed:       st.Recovery.Replayed,
			TruncatedBytes: st.Recovery.TruncatedBytes,
			Resynced:       st.Recovery.Resynced,
			Rejoined:       st.Recovery.Rejoined,
		},
	}
}

func walTails(tails []replication.WALTail) []WALTail {
	if tails == nil {
		return nil
	}
	out := make([]WALTail, len(tails))
	for i, t := range tails {
		out[i] = WALTail{Path: t.Path, Synced: t.Synced}
	}
	return out
}

// Durability returns the disk tier's status for the selected shard
// (default shard 0; the tier is configured uniformly, so Enabled is
// uniform too); the zero value with the tier off or for an out-of-range
// selector.
func (c *Cluster) Durability(shard ...int) DurabilityStatus {
	m, err := c.pick(shard)
	if err != nil {
		return DurabilityStatus{}
	}
	return durabilityStatus(m.Durability())
}

// PowerFail kills every machine of the selected shard (default shard 0)
// at this instant: unlike CrashPrimary, the backups die too, and nothing
// past each replica's last fdatasync is guaranteed on disk. The shard is
// unusable afterwards; a fresh New/NewSharded over the same
// Durability.Dir performs the cold restart, each shard independently
// from its own subdirectory (a whole-deployment power loss is a
// PowerFail of every shard). Returns ErrNoDurability without the disk
// tier and ErrCrashed when the power is already off.
func (c *Cluster) PowerFail(shard ...int) error {
	m, err := c.pick(shard)
	if err != nil {
		return err
	}
	return mapErr(m.PowerFail())
}

// WALTails returns, after a PowerFail, each replica's live WAL segment
// and its synced offset on the selected shard (default shard 0) — the
// handles a crash harness uses to tear the unsynced tail. Nil before a
// PowerFail or without the disk tier.
func (c *Cluster) WALTails(shard ...int) []WALTail {
	m, err := c.pick(shard)
	if err != nil {
		return nil
	}
	return walTails(m.WALTails())
}

// Close flushes and closes every WAL replica of every shard (a clean
// shutdown, as opposed to PowerFail), returning the first error. The
// in-memory deployment is untouched; a no-op without the disk tier.
func (c *Cluster) Close() error { return c.eachShard((*member).Close) }
