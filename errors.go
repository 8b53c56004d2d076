package repro

import (
	"errors"
	"fmt"

	"repro/internal/placement"
	"repro/internal/replication"
	"repro/internal/vista"
)

// This file is the package's complete error taxonomy: every sentinel an
// API call can return lives here, in one place, with the call → error map
// below. Every sentinel an internal layer can surface is an alias of that
// layer's value, so an error crosses the facade as it is — nothing is
// translated, and errors.Is works on every path; the sentinels owned here
// are the ones only the facade can raise.
//
// Which calls return which errors:
//
//	Call                       Errors
//	-------------------------  -------------------------------------------
//	New / NewSharded           ErrShardCount, configuration errors
//	DB.Begin                   ErrCrashed, ErrSafetyUnavailable,
//	                           ErrLeaseExpired
//	Tx.SetRange                ErrBounds, ErrTxDone, ErrCrashed,
//	                           ErrUndoFull (Version 3 only)
//	Tx.Write                   ErrBounds, ErrWriteOutsideRange, ErrTxDone,
//	                           ErrCrashed
//	Tx.Read                    ErrBounds, ErrTxDone, ErrCrashed
//	Tx.Commit                  ErrTxDone, ErrCrashed, ErrSafetyUnavailable
//	                           (committed locally, acks not collected);
//	                           with two or more shards touched, the
//	                           failed shard is named and the shards
//	                           before it have committed
//	Tx.Abort                   ErrTxDone, ErrCrashed
//	DB.Read / DB.Load          ErrBounds, ErrCrashed (Read only)
//	DB.ReadAt                  ErrBounds, ErrCrashed,
//	                           ErrReplicaUnavailable (only for reads
//	                           pinned via ReadOpts.Replica; routed reads
//	                           fall back to the primary instead)
//	DB.Token / Elapsed         none
//	DB.ReadRaw                 none — panics on an out-of-range span
//	DB.Flush                   ErrSafetyUnavailable
//	AckScope.Seal              ErrSafetyUnavailable, ErrCrashed (a primary
//	                           died holding the scope's unsealed commits)
//	Admin.Shard                none — nil for an out-of-range index
//	Admin.CrashPrimary         ErrCrashed (already dead)
//	Admin.PartitionPrimary     ErrCrashed, ErrNoBackup
//	Admin.Failover             ErrNoBackup
//	Admin.Repair / RepairAsync ErrNotRepairable
//	Admin.CrashBackup          no-such-backup errors
//	Admin.PauseBackup          no-such-backup errors
//	Admin.ResumeBackup         no-such-backup errors
//	Admin.PowerFail            ErrNoDurability, ErrCrashed (power already
//	                           off)
//	Admin.AddShards            ErrNotElastic (Shard views, here and on the
//	                           next two), ErrRebalanceActive,
//	                           ErrShardCount, configuration errors
//	Admin.RemoveShard          ErrNotElastic, ErrRebalanceActive,
//	                           ErrNoSuchShard, ErrNoCapacity, ErrCrashed
//	Admin.Rebalance[Async]     ErrNotElastic, ErrRebalanceActive
//	                           (Async only), ErrCrashed (mover blocked on
//	                           a dead group; resolve and call again)
//
// The kv layer (package repro/kv) adds its own taxonomy on top of this
// one; see that package's documentation.
var (
	// ErrCrashed is returned once the serving primary has crashed and no
	// failover has happened yet: by Begin, by every method of a
	// transaction handle the crash orphaned, and by charged reads. Call
	// Failover (or enable Config.Autopilot) to restore service. Also by
	// the Seal of an AckScope that held unsealed commits at the crash, and
	// by Begin from the crash until that Seal.
	ErrCrashed = replication.ErrCrashed
	// ErrSafetyUnavailable is returned when too few backups are
	// reachable for the configured safety level: by Begin before a
	// transaction opens, or by Commit when backups failed mid-flight —
	// in the latter case the transaction is committed locally but its
	// acknowledgement discipline was not met.
	ErrSafetyUnavailable = replication.ErrSafetyUnavailable
	// ErrLeaseExpired is returned by Begin on a deposed primary: the node
	// is partitioned from the cluster and its serving lease has run out,
	// so it refuses new commits (the surviving majority may already have
	// promoted a replacement). See Config.Autopilot.
	ErrLeaseExpired = replication.ErrLeaseExpired
	// ErrNoDurability is returned by the durability-only operations
	// (Admin.PowerFail) when the deployment runs without the disk tier
	// (Config.Durability unset).
	ErrNoDurability = replication.ErrNoDurability
	// ErrReplicaUnavailable is returned by ReadAt for a read pinned to a
	// specific replica (ReadOpts.Replica > 0) that the replica cannot
	// serve: a deployment built passive, a replica not fully enrolled
	// (mid-join, paused, gated, crashed, epoch-fenced — never "failed over":
	// an active deployment stays active), or one unable to satisfy the
	// requested consistency mode. Automatically routed reads never return it — they
	// fall back to the primary.
	ErrReplicaUnavailable = replication.ErrReplicaUnavailable
	// ErrBounds is returned for any access outside the configured
	// database size: transactional SetRange/Write/Read, charged Read,
	// and Load.
	ErrBounds = vista.ErrBounds
	// ErrWriteOutsideRange is returned by Tx.Write for bytes not covered
	// by a declared set-range.
	ErrWriteOutsideRange = vista.ErrOutOfRange
	// ErrTxDone is returned by operations on a transaction handle that
	// has already committed or aborted.
	ErrTxDone = vista.ErrTxDone
	// ErrUndoFull is returned by Tx.SetRange on a Version 3 engine when
	// the transaction's before-images no longer fit in its undo log.
	ErrUndoFull = vista.ErrUndoFull
	// ErrNoBackup is returned by Failover when no surviving backup can
	// take over (standalone clusters, or every backup dead).
	ErrNoBackup = replication.ErrNoBackup
	// ErrNotRepairable is returned by Repair and RepairAsync when every
	// configured replica is already enrolled and in sync.
	ErrNotRepairable = replication.ErrNotRepairable
	// ErrShardCount is returned by NewSharded for a non-positive shard
	// count.
	ErrShardCount = errors.New("repro: shard count must be at least 1")
	// ErrNoSuchShard is returned by RemoveShard for a shard id outside
	// 0..Shards()-1 or already drained.
	ErrNoSuchShard = errors.New("repro: no such shard")
	// ErrNotElastic is returned by the elastic surface (AddShards,
	// RemoveShard, Rebalance) on a Cluster.Shard view: one replica group
	// of a deployment, whose topology changes through its parent.
	ErrNotElastic = errors.New("repro: deployment is not elastic")
	// ErrRebalanceActive is returned by topology changes (AddShards,
	// RemoveShard, RebalanceAsync) issued while a rebalance is still
	// moving ranges; watch RebalanceProgress for completion.
	ErrRebalanceActive = errors.New("repro: rebalance already in progress")
	// ErrNoCapacity is returned by RemoveShard when the surviving shards
	// lack the free partition slots to absorb the drained shard's data.
	ErrNoCapacity = placement.ErrNoCapacity
)

// recoveryErr reports the failure of a Failover or Repair: the operation's
// own two sentinels come back bare, anything else names the operation.
func recoveryErr(op string, err error) error {
	if err == nil || err == ErrNoBackup || err == ErrNotRepairable {
		return err
	}
	return fmt.Errorf("repro: %s: %w", op, err)
}
