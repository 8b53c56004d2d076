// Package repro is a from-scratch reproduction of "Data Replication
// Strategies for Fault Tolerance and Availability on Commodity Clusters"
// (Amza, Cox, Zwaenepoel — DSN 2000): a Vista-style in-memory transaction
// server over reliable memory, replicated to K backup nodes either
// passively (write-through doubling over a modelled Memory Channel SAN) or
// actively (a redo-log circular buffer applied by each backup CPU), with
// configurable commit safety (1-safe, 2-safe, quorum), crash injection,
// most-caught-up failover and repair. NewSharded stripes a database across
// N independent replica groups for throughput that scales with shard
// count.
//
// The package is the public facade over the internal substrate packages.
// State is real — crash the primary at any instant and a backup recovers
// the committed prefix — while time is simulated, so throughput numbers are
// deterministic reproductions of the paper's tables rather than host
// measurements. See DESIGN.md for the model and EXPERIMENTS.md for the
// measured-versus-paper results.
//
// # The DB interface
//
// Every deployment is a Cluster — New builds it over one replica group,
// NewSharded over several — and satisfies the DB interface: one data-plane
// and observability surface to write drivers, harnesses and applications
// against. Fault injection and recovery live on the companion Admin
// interface, whose per-group methods act on the first shard; Shard(i)
// addresses another. The complete error taxonomy is documented in one
// place; see errors.go.
//
// Quick start — byte offsets (db satisfies repro.DB):
//
//	db, err := repro.New(repro.Config{
//		Version: repro.V3InlineLog,
//		Backup:  repro.ActiveBackup,
//		DBSize:  8 << 20,
//	})
//	tx, _ := db.Begin()
//	tx.SetRange(0, 8)
//	tx.Write(0, []byte("8 bytes!"))
//	tx.Commit()  // 1-safe: returns without waiting for the backup
//	db.Settle()  // let the SAN drain (or use Config.Safety)
//
// Quick start — typed keys (package repro/kv lays a key-value store out
// inside the replicated bytes, so the whole keyspace survives crash,
// failover and online repair):
//
//	store, _ := kv.Open(db) // kv.Open takes any repro.DB
//	store.Put([]byte("alice"), []byte("100"))
//	v, _ := store.Get([]byte("alice"))
//
//	// Crash the primary and promote a backup: the keyspace comes back.
//	db.CrashPrimary()
//	db.Failover()
//	store, _ = kv.Open(db) // recover the index from the replicated bytes
//	v, _ = store.Get([]byte("alice"))
package repro

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Version selects one of the paper's four engine designs (Section 4).
type Version = vista.Version

// Engine versions, numbered as in the paper.
const (
	// V0Vista is the original Vista design: heap-allocated undo records
	// on a linked list.
	V0Vista = vista.V0Vista
	// V1MirrorCopy mirrors the database and copies set-range areas to
	// the mirror on commit.
	V1MirrorCopy = vista.V1MirrorCopy
	// V2MirrorDiff mirrors the database and writes only differing words
	// to the mirror on commit.
	V2MirrorDiff = vista.V2MirrorDiff
	// V3InlineLog keeps before-images inline in a bump-pointer undo log
	// — the paper's best design.
	V3InlineLog = vista.V3InlineLog
)

// BackupMode selects the replication architecture (Sections 5 and 6).
type BackupMode = replication.Mode

// Backup modes.
const (
	// Standalone runs without a backup (paper Table 3).
	Standalone = replication.Standalone
	// PassiveBackup replicates the engine's structures by write-through
	// doubling; the backup CPU idles until failover.
	PassiveBackup = replication.Passive
	// ActiveBackup ships a redo log that the backup CPU applies to its
	// own database copy; requires V3InlineLog as the local scheme.
	ActiveBackup = replication.Active
)

// Safety selects the commit discipline of a replicated cluster.
type Safety = replication.Safety

// Safety levels.
const (
	// OneSafe returns from Commit at the local commit point (the paper's
	// choice): a crash in the next few microseconds may lose the
	// transaction.
	OneSafe = replication.OneSafe
	// TwoSafe holds Commit until every live backup has applied and
	// acknowledged the transaction.
	TwoSafe = replication.TwoSafe
	// QuorumSafe holds Commit until a majority of the replica group
	// (primary included) has the transaction: with K backups,
	// ceil((K+1)/2) acknowledgements. An acked commit survives the
	// simultaneous loss of the primary and any minority of backups.
	QuorumSafe = replication.QuorumSafe
)

// ReadMode selects the consistency discipline of a ReadAt: which replicas
// may serve the read and how stale a view the caller tolerates. The zero
// value is ReadPrimary, exactly Read. A kv lookup in that mode reads the
// primary's view instead: ReadBounded at bound 0 (see package kv).
type ReadMode = replication.ReadMode

// Read modes. Replica reads require the active backup scheme (whose
// backup copies are transaction-consistent at every applied commit);
// under the passive scheme or standalone every mode degrades to the
// primary. An active deployment stays active behind every promoted
// survivor, so its replica reads are back as soon as Repair has enrolled
// backups again.
const (
	// ReadPrimary serializes the read through the primary (the default).
	ReadPrimary = replication.ReadPrimary
	// ReadYourWrites serves from any backup whose applied sequence has
	// reached the caller's token (see DB.Token), else the primary: the
	// caller observes every write it has ever committed, and never an
	// older view.
	ReadYourWrites = replication.ReadYourWrites
	// ReadBounded serves from any backup within ReadOpts.Bound commit
	// sequences of the primary's committed counter, else the primary:
	// staleness is capped by an explicit, advertised bound.
	ReadBounded = replication.ReadBounded
	// ReadQuorum reads a majority of the replica group — which intersects
	// every commit quorum — serves the max-sequence view and repairs
	// laggards: the paranoid tier, guaranteed to observe every
	// acknowledged commit.
	ReadQuorum = replication.ReadQuorum
)

// Token is a per-shard commit-sequence vector: element i is a lower bound
// on the committed-transaction count of shard i that the holder's reads
// must observe (a deployment built by New has one). Tokens are plain data —
// comparable, mergeable by element-wise max, and portable across
// deployments: a shard with no element (nil token, or a token captured on
// a deployment with fewer shards) is simply unconstrained, so a token from
// shard A is always valid on shard B.
type Token []uint64

// Merge folds other into t by element-wise max, growing t as needed, and
// returns the merged token (sessions merge the token returned by every
// commit).
func (t Token) Merge(other Token) Token {
	for len(t) < len(other) {
		t = append(t, 0)
	}
	for i, v := range other {
		if v > t[i] {
			t[i] = v
		}
	}
	return t
}

// ReadOpts selects the consistency discipline of one ReadAt. The zero
// value routes to the primary, exactly like Read.
type ReadOpts struct {
	// Mode is the consistency discipline.
	Mode ReadMode
	// Token is the session's commit-sequence floor (ReadYourWrites): the
	// vector returned by DB.Token after the session's last write. Nil or
	// short tokens leave the missing shards unconstrained.
	Token Token
	// Bound is the tolerated staleness for ReadBounded, measured in
	// commit sequences against the serving shard's committed counter.
	Bound uint64
	// Replica pins the read: 0 routes automatically per Mode, r ≥ 1
	// serves only from backup r-1 (ErrReplicaUnavailable if it cannot
	// satisfy the mode). Sessions pin the replica a routed read chose so
	// a multi-read operation observes one view.
	Replica int
}

// ReadResult reports where a ReadAt was served: Replica is 0 for the
// primary and r ≥ 1 for backup r-1, Primary-Seq is the staleness the read
// observed in commit sequences (both shard-local). On a sharded deployment
// it reports the last sub-span's server.
type ReadResult = replication.ReadResult

// Config sizes a Cluster.
type Config struct {
	// Version is the engine design; see the Version constants.
	Version Version
	// Backup is the replication architecture (default Standalone).
	Backup BackupMode
	// DBSize is the database size in bytes (paper default: 50 MB).
	DBSize int
	// Backups is the replication degree K: how many backup nodes the
	// primary feeds. Zero means one backup for the replicated modes —
	// the paper's pair.
	Backups int
	// Safety selects the commit discipline (default OneSafe); stronger
	// levels require a replicated mode.
	Safety Safety
	// CommitBatch enables group commit: up to CommitBatch transactions
	// committing back to back share one redo-ring pointer publish and one
	// acknowledgement wait. 0 or 1 disables batching (the default,
	// preserving per-commit behavior exactly). Commits in an unflushed
	// batch at a crash are lost — the batched 1-safe window; Flush,
	// Settle and Repair seal the open batch.
	CommitBatch int
	// Autopilot switches on unattended failure handling: heartbeat
	// failure detection, lease-guarded auto-failover and self-healing
	// repair. Off (zero) by default — every fault is then handled by the
	// manual Failover/Repair calls exactly as before. The configuration
	// applies per shard (each shard runs its own detector and spare pool).
	Autopilot AutopilotConfig
	// Durability switches on the per-replica disk tier: redo WAL +
	// snapshots + cold-restart recovery (see DurabilityConfig). Off
	// (zero) by default — nothing touches the filesystem and every
	// simulated metric is bit-for-bit unchanged. Each shard persists under
	// its own Dir/shard-NNN subdirectory.
	Durability DurabilityConfig
	// Metrics attaches the observability layer: a per-deployment metrics
	// registry (commit/flush latency histograms, read-route and WAL
	// counters, per-backup lag gauges) plus a fixed-size event ring
	// tracing failovers, detector transitions, repair phases and WAL
	// rotations — snapshot it with DB.Metrics. Off (false) by default:
	// no instrument is registered, nothing reads any clock on the
	// instrumentation's behalf, and every simulated metric is
	// bit-for-bit unchanged. Each shard owns its own registry; DB.Metrics
	// merges them, stamping events with their shard.
	Metrics bool
}

// AutopilotConfig times and scopes the unattended failure loop. The zero
// value disables it.
type AutopilotConfig struct {
	// HeartbeatPeriod is the interval between heartbeat rounds exchanged
	// over the SAN; a positive value enables the autopilot. Heartbeat
	// bytes are accounted under Traffic.ControlBytes. A peer silent for
	// four periods is Suspect and one more missed beat confirms it Dead,
	// so detection latency is bounded by five periods.
	HeartbeatPeriod time.Duration
	// AutoFailover promotes the most-caught-up survivor automatically
	// when the primary is declared dead, guarded by the primary lease (a
	// deposed primary whose lease expired refuses new commits with
	// ErrLeaseExpired — no split-brain).
	AutoFailover bool
	// AutoRepair re-enrolls replacements from the spare pool when a
	// backup is declared dead, and refills the group after a failover.
	AutoRepair bool
	// Spares is the number of fresh spare nodes the autopilot may enroll
	// over the cluster's lifetime (per shard on a sharded cluster).
	Spares int
}

// Tx is one open transaction: the paper's RVM-style API (Section 2.1).
// Writes must fall inside a declared range.
type Tx = replication.TxHandle

// Traffic is the SAN byte breakdown of paper Tables 2, 5 and 7, plus the
// state-transfer traffic of an online repair and the control-plane traffic
// of the autopilot's failure detector.
type Traffic struct {
	ModifiedBytes int64
	UndoBytes     int64
	MetaBytes     int64
	// SyncBytes is the chunked state-transfer payload an online repair
	// shipped (RepairAsync); zero in steady state.
	SyncBytes int64
	// ControlBytes is the heartbeat (and heartbeat-ack) payload the
	// failure-detection subsystem exchanged; zero with Autopilot off.
	ControlBytes int64
}

// Total returns the total bytes shipped to the backup.
func (t Traffic) Total() int64 {
	return t.ModifiedBytes + t.UndoBytes + t.MetaBytes + t.SyncBytes + t.ControlBytes
}

// RepairProgress reports the state of the current (or most recent) online
// repair.
type RepairProgress struct {
	// Active is true while a repair is in flight.
	Active bool
	// Joining counts the backups still mid-join.
	Joining int
	// Phase is "idle", "syncing" or "catching-up".
	Phase string
	// BytesShipped and BytesPlanned describe the state transfer: pages
	// shipped so far versus the transfer plan (delta pages for a resumed
	// backup, whole regions for a fresh one).
	BytesShipped int64
	BytesPlanned int64
	// Elapsed is the simulated time the repair has been running (final
	// value once Active goes false).
	Elapsed time.Duration
}

// FailureEvent is the recorded timeline of one fault the autopilot
// handled. Zero-valued stamps mean "has not happened".
type FailureEvent struct {
	// Kind is "primary" or "backup"; Node names the failed machine.
	Kind string
	Node string
	// Shard is the owning shard.
	Shard int
	// The per-event timeline, in cumulative simulated time: when the
	// fault was injected, when the detector declared the node dead, when
	// the promoted survivor was serving (primary faults only), when the
	// self-healing re-enrollment began, and when the cluster was back at
	// full redundancy.
	FailedAt, DetectedAt, FailedOverAt, RepairStartedAt, RestoredAt time.Duration
	// RepairBytes is the state-transfer payload the shard shipped between
	// the event's opening and its restoration.
	RepairBytes int64
}

// MTTD is the mean-time-to-detect component: fault to dead-declaration.
func (e FailureEvent) MTTD() time.Duration { return e.DetectedAt - e.FailedAt }

// FailoverLatency is the dead-declaration to serving-again interval (zero
// for backup faults, which need no takeover).
func (e FailureEvent) FailoverLatency() time.Duration {
	if e.FailedOverAt == 0 {
		return 0
	}
	return e.FailedOverAt - e.DetectedAt
}

// RepairDuration is the re-enrollment transfer's duration (zero while the
// repair is still running or never started).
func (e FailureEvent) RepairDuration() time.Duration {
	if e.RestoredAt == 0 || e.RepairStartedAt == 0 {
		return 0
	}
	return e.RestoredAt - e.RepairStartedAt
}

// MTTR is the mean-time-to-restore component: fault to full redundancy
// (zero while not yet restored).
func (e FailureEvent) MTTR() time.Duration {
	if e.RestoredAt == 0 {
		return 0
	}
	return e.RestoredAt - e.FailedAt
}

// Stats reports transaction counters of the serving store.
type Stats = vista.Stats

// Metrics is a point-in-time copy of the deployment's observability
// registry: counters, gauges, latency histograms and the failure/repair
// event ring, JSON-serializable for scrape surfaces. It is an alias of
// the internal snapshot type, so values flow unchanged from DB.Metrics
// through the kvwire METRICS opcode to the Prometheus text endpoint.
type Metrics = obs.Snapshot

// member is one replica group as the router holds it: the group itself,
// its metrics registry (nil with Config.Metrics off), whether PowerFail cut
// its power, and the translation of the public configuration and read
// options into the internal layer's.
type member struct {
	*replication.Group
	reg *obs.Registry
	off atomic.Bool
}

// newMember builds one replica group per cfg, whose DBSize is the group's
// own slice of the deployment.
func newMember(cfg Config) (*member, error) {
	if cfg.Backup == 0 {
		cfg.Backup = Standalone
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	g, err := replication.NewGroup(replication.Config{
		Mode: cfg.Backup,
		Obs:  reg,
		Store: vista.Config{
			Version: cfg.Version,
			DBSize:  cfg.DBSize,
		},
		Backups:     cfg.Backups,
		Safety:      cfg.Safety,
		CommitBatch: cfg.CommitBatch,
		Autopilot: replication.AutopilotConfig{
			HeartbeatPeriod: sim.Dur(cfg.Autopilot.HeartbeatPeriod.Nanoseconds()) * sim.Nanosecond,
			AutoFailover:    cfg.Autopilot.AutoFailover,
			AutoRepair:      cfg.Autopilot.AutoRepair,
			Spares:          cfg.Autopilot.Spares,
		},
		Durability: cfg.Durability,
	})
	if err != nil {
		return nil, err
	}
	return &member{Group: g, reg: reg}, nil
}

// readAt performs a charged read of the group's local bytes under opts,
// with minSeq the group's own element of the caller's token.
func (m *member) readAt(off int, dst []byte, opts ReadOpts, minSeq uint64) (ReadResult, error) {
	return m.RouteRead(off, dst, replication.ReadSpec{
		Mode:    opts.Mode,
		MinSeq:  minSeq,
		Bound:   opts.Bound,
		Replica: opts.Replica,
	})
}
