package repro

import (
	"slices"

	"repro/internal/replication"
	"repro/internal/sim"
)

// DurabilityConfig switches on the per-replica disk tier: an append-only
// redo WAL mirroring the commit stream, periodic snapshot/checkpoint
// files, and a cold-restart recovery path that reloads the newest valid
// snapshot, replays the WAL tail, truncates at the first torn or corrupt
// record, and rejoins lagging replicas through the chunked transfer
// engine. The zero value disables the tier. Shard i persists under
// Dir/shard-NNN, each of its replicas in its own node-NNN slot directory
// below that.
type DurabilityConfig = replication.DurabilityConfig

// RecoveryInfo describes what a cold restart found in the durability
// directory.
type RecoveryInfo = replication.RecoveryInfo

// DurabilityStatus is the introspection snapshot of one shard's disk tier;
// Dir is that shard's subdirectory of the deployment's durability
// directory.
type DurabilityStatus = replication.DurabilityStatus

// WALTail names the live WAL segment of one replica at the instant of a
// PowerFail, with the offset the last fdatasync covered.
type WALTail = replication.WALTail

// Durability returns the disk tier's status for the first shard (the tier
// is configured uniformly, so Enabled is uniform too); the zero value with
// the tier off.
func (c *Cluster) Durability() DurabilityStatus { return c.first().Durability() }

// PowerFail kills every machine of the first shard at this instant: unlike
// CrashPrimary, the backups die too, and nothing past each replica's last
// fdatasync is guaranteed on disk. The shard refuses service until
// PowerOn (a whole-deployment power loss is a PowerFail of every
// Shard(i)). Returns ErrNoDurability without the disk tier and ErrCrashed
// when the power is already off.
func (c *Cluster) PowerFail() error {
	m := c.first()
	if err := m.PowerFail(); err != nil {
		return err
	}
	m.off.Store(true)
	return nil
}

// PowerOn is the cold restart, in place: every shard PowerFail cut,
// through the deployment or a Shard(i) view, is rebuilt from its own
// subdirectory of Durability.Dir (see DurabilityConfig) and published in a
// new routing view, so the Cluster and every Begin bound to it serve on.
// A rebuilt shard's measured interval starts level with the deployment's,
// as a grown one's does. ErrNotElastic on a Shard(i) view, whose routing
// is its parent's; ErrRebalanceActive while a rebalance runs.
func (c *Cluster) PowerOn() error {
	if err := c.lockTopology(); err != nil {
		return err
	}
	defer c.admin.Unlock()
	v := c.v()
	list := slices.Clone(v.shards)
	e := sim.Dur(c.elapsed())
	var err error
	for i, m := range list {
		if !m.off.Load() {
			continue
		}
		if m, err = c.newShard(i); err != nil {
			break
		}
		m.Primary().Clock.Advance(e)
		list[i] = m
	}
	// Shards rebuilt before a failure are published all the same: their
	// files are the deployment's to close.
	c.view.Store(&placeView{shards: list, table: v.table})
	return err
}

// WALTails returns, after a PowerFail, each replica's live WAL segment and
// its synced offset on the first shard — the handles a crash harness uses
// to tear the unsynced tail. Nil before a PowerFail or without the disk
// tier.
func (c *Cluster) WALTails() []WALTail { return c.first().WALTails() }

// Close flushes and closes every WAL replica of every shard (a clean
// shutdown, as opposed to PowerFail), returning the first error. The
// in-memory deployment is untouched; a no-op without the disk tier.
func (c *Cluster) Close() error { return c.eachShard((*member).Close) }
