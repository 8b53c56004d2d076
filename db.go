package repro

import "time"

// DB is the package's storage abstraction: the full data-plane and
// observability surface of one replicated deployment, satisfied by
// Cluster. Drivers, harness cells and applications written against DB run
// unchanged over one replica group or many (see errors.go for the error
// taxonomy).
//
// The kv layer (package repro/kv) builds a typed key-value API on top of
// any DB, laying its index and record heap out inside the replicated
// bytes so the whole keyspace inherits the deployment's fault tolerance.
type DB interface {
	// Begin opens a transaction on the serving node; the handle is valid
	// until Commit or Abort. A dead primary refuses with ErrCrashed, a
	// group below its safety level with ErrSafetyUnavailable, a deposed
	// primary with ErrLeaseExpired. A one-shard deployment refuses at
	// Begin itself; with more shards the per-shard transactions open
	// lazily, so the same sentinels surface at the first operation
	// touching the affected shard — test with errors.Is either way.
	Begin() (Tx, error)
	// Read performs a charged, non-transactional read, serialized with
	// the deployment's transactions. Returns ErrBounds outside the
	// database and ErrCrashed on a dead primary.
	Read(off int, dst []byte) error
	// ReadAt performs a charged read under an explicit consistency
	// discipline, letting backup replicas serve when the mode permits
	// (active scheme, fully enrolled replicas only — a mid-join replica
	// never serves). The zero ReadOpts is exactly Read, bit-for-bit in
	// the sim metrics. ReadYourWrites routes to any backup whose applied
	// sequence has reached the caller's token, ReadBounded to any within
	// ReadOpts.Bound commit sequences of the primary, ReadQuorum reads a
	// majority and serves the max-sequence view with read repair; each
	// falls back to the primary when no backup qualifies. Errors as Read,
	// plus ErrReplicaUnavailable for pinned reads (ReadOpts.Replica > 0)
	// the pinned replica cannot serve.
	ReadAt(off int, dst []byte, opts ReadOpts) (ReadResult, error)
	// Token fills dst (growing it as needed) with the deployment's
	// per-shard commit-sequence vector — the floor a subsequent
	// ReadYourWrites read must observe. Capture it after Commit returns;
	// merge tokens across shards/sessions with Token.Merge. Never blocks.
	Token(dst Token) Token
	// ReadRaw copies database bytes without charging simulated time
	// (test oracles, state dumps). It panics if [off, off+len(dst))
	// falls outside DBSize().
	ReadRaw(off int, dst []byte)
	// Load installs initial content without charging simulated time,
	// keeping every replica's copy in sync (the initial transfer that
	// precedes failure-free operation). Returns ErrBounds outside the
	// database.
	Load(off int, data []byte) error
	// Flush seals and ships any open group-commit batch (see
	// Config.CommitBatch and DeferAcks; Settle and Repair seal it too); a
	// no-op when nothing is pending.
	// It answers for the batch it ships and nothing else: commits a
	// primary crash already dropped from an open batch are not its to
	// report, so after a crash it returns nil — a caller that must know
	// whether a run of commits survived wraps the run in DeferAcks.
	Flush() error
	// DeferAcks opens an acknowledgement-deferral scope on every shard:
	// until the scope's Seal, commits join the open group-commit batch
	// without sealing it by count, whatever Config.CommitBatch says, and
	// Seal pays the one pointer publish, acknowledgement round trip and
	// disk sync for all of them. Commit returns at the local (1-safe) commit
	// point inside a scope; nothing committed there may be acknowledged
	// to anyone before Seal returns nil. If a primary dies holding such
	// commits, Begin refuses with ErrCrashed until the scope has sealed —
	// with ErrCrashed. Seal exactly once, and promptly.
	DeferAcks() AckScope
	// Settle lets the deployment sit idle long enough for everything in
	// flight to drain; a crash after Settle loses nothing.
	Settle()
	// Committed returns the committed-transaction count recorded in the
	// serving node's reliable memory (summed across shards). Never
	// blocks.
	Committed() uint64
	// Stats returns the serving deployment's transaction counters.
	// Never blocks.
	Stats() Stats
	// NetTraffic returns the SAN bytes shipped since the last
	// measurement reset, by category. Never blocks.
	NetTraffic() Traffic
	// Elapsed returns the simulated time consumed since the last
	// measurement reset: the longest span of any node — a shard's primary
	// or a backup that served a read — since then, so a read-scaled
	// workload is paced by its busiest node. Never blocks.
	Elapsed() time.Duration
	// ResetMeasurement starts a fresh measured interval: statistics
	// zeroed, cache and link state preserved.
	ResetMeasurement()
	// AutopilotEvents returns the fault timeline the unattended failure
	// loop recorded; empty with Config.Autopilot off.
	AutopilotEvents() []FailureEvent
	// Metrics snapshots the deployment's observability registry —
	// counters, gauges, latency histograms and the failure/repair event
	// ring; the zero Snapshot with Config.Metrics off. The per-shard
	// registries are merged, each event stamped with its owning shard.
	// Never blocks.
	Metrics() Metrics
	// DBSize returns the configured database size — the bound every
	// offset is validated against.
	DBSize() int
	// Capacity returns the allocated size, at least DBSize (each shard
	// is rounded up to a 4 KB multiple; the rounding tail is
	// unaddressable).
	Capacity() int
	// Shards returns the number of independent replica groups serving
	// the database: 1 for a deployment built by New, until it grows.
	Shards() int
	// PartSize returns the placement partition in bytes — the unit of
	// placement and therefore of atomicity: offsets inside one
	// partition-aligned PartSize span live on one shard at every placement
	// epoch, so a transaction confined to the span commits on one replica
	// group, atomically. Constant for the deployment's life.
	PartSize() int
	// ShardFor returns the shard that owns database offset off under the
	// current placement: always 0 on one shard. It changes only at a
	// range's cut-over, which waits for any transaction open on the
	// range's shard.
	ShardFor(off int) int
}

// Admin is the fault-injection and recovery surface. The per-group methods
// — everything from CrashPrimary to WALTails — act on the receiver's first
// shard: all there is on one shard, one group of Shards() on several,
// where Shard(i) is the one way to address another and a caller healing
// "the deployment" visits each.
type Admin interface {
	// Shard returns the one-shard view of shard i, itself an Admin (and a
	// DB over shard-local offsets); nil for an index outside
	// [0, Shards()).
	Shard(i int) *Cluster
	// CrashPrimary kills the shard's primary mid-flight; doubled stores
	// still sitting in its write buffers are lost (the paper's 1-safe
	// vulnerability window).
	CrashPrimary() error
	// PartitionPrimary severs the shard's primary from the SAN without
	// killing it (the no-split-brain demonstration; see
	// Config.Autopilot).
	PartitionPrimary() error
	// Failover promotes the shard's most-caught-up surviving backup.
	// Returns ErrNoBackup when no survivor exists.
	Failover() error
	// Repair restores the shard to its configured replication degree,
	// blocking until the incremental transfer completes.
	Repair() error
	// RepairAsync starts an online repair of the shard and returns
	// immediately; watch RepairProgress for completion.
	RepairAsync() error
	// RepairProgress reports the shard's current (or most recent) online
	// repair.
	RepairProgress() RepairProgress
	// CrashBackup kills backup i of the shard.
	CrashBackup(i int) error
	// PauseBackup partitions backup i of the shard away from the SAN;
	// ResumeBackup reconnects it (gated until re-enrolled by Repair or
	// RepairAsync).
	PauseBackup(i int) error
	// ResumeBackup reconnects a paused backup of the shard.
	ResumeBackup(i int) error
	// Backups returns the shard's current backup count.
	Backups() int
	// AutopilotEnabled reports whether the unattended failure loop is
	// on (per shard, configured alike on every shard).
	AutopilotEnabled() bool
	// Durability returns the disk tier's status for the shard; the zero
	// value with Config.Durability off.
	Durability() DurabilityStatus
	// PowerFail kills every machine of the shard at once — backups
	// included; nothing past each replica's last fdatasync is guaranteed
	// on disk. Returns ErrNoDurability without the disk tier.
	// Cluster.PowerOn performs the cold restart in place.
	PowerFail() error
	// WALTails returns, after a PowerFail, the shard's live WAL segments
	// and their synced offsets — the handles a crash harness uses to tear
	// the unsynced tail.
	WALTails() []WALTail
	// Close cleanly shuts the disk tier (flush + close every WAL);
	// a no-op without Config.Durability.
	Close() error

	// AddShards appends n empty shard groups and returns their ids. The
	// new shards serve no data until a Rebalance moves ranges onto them.
	// ErrNotElastic, here and on RemoveShard and Rebalance, on a
	// Cluster.Shard view, whose topology is its parent's.
	AddShards(n int) ([]int, error)
	// RemoveShard drains every range off the named shard (an online
	// rebalance onto the survivors) and tombstones it: the id stays
	// valid for Token, Stats and Shard indexing but owns no data and
	// joins no future plan. ErrNoSuchShard outside [0, Shards()) or
	// already drained.
	RemoveShard(shard int) error
	// Rebalance plans the moves that even out the serving shards'
	// partition counts, to within one, and blocks until every range has
	// migrated and cut over. A no-op (nil) when the placement is already
	// balanced.
	Rebalance() error
	// RebalanceAsync starts the rebalance and returns immediately; the
	// range mover then rides the deployment's commit stream (each
	// Commit/Abort and Settle pumps it). Watch RebalanceProgress.
	RebalanceAsync() error
	// RebalanceProgress reports the current (or most recent) rebalance.
	RebalanceProgress() RebalanceProgress
	// PlacementEpoch returns the routing table's version: 1 at
	// construction, +1 at every range cut-over.
	PlacementEpoch() uint64
}

// Compile-time assertions: Cluster satisfies the full surface.
var (
	_ DB    = (*Cluster)(nil)
	_ Admin = (*Cluster)(nil)
)
